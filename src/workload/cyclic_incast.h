// CyclicIncastDriver: the Section 4 workload.
//
// N persistent DCTCP flows share a dumbbell bottleneck. Each burst hands
// every flow an equal share of (bottleneck_rate x burst_duration) bytes;
// flow start times are jittered uniformly in [0, 100 us] "to model
// variations in processing time". Connections persist across bursts, so
// congestion state carries over — the precondition for the Section 4.3
// burst-boundary divergence.
//
// Two schedules are supported:
//  * kFixedPeriod (default, matching the paper's cyclic workload): burst i
//    begins at i * (burst_duration + gap) regardless of progress. When
//    recovery stretches a burst past its period (Mode 3), later bursts pile
//    onto the backlog, which is exactly what makes 1000-flow incasts
//    catastrophic.
//  * kAfterCompletion: the next burst begins `gap` after the previous one
//    fully completes — a request/response pattern with think time.
//
// Per-burst completion is tracked by cumulative ACK thresholds (flow f has
// completed burst i once it has delivered (i+1) * demand bytes), which is
// well-defined even when bursts overlap.
#ifndef INCAST_WORKLOAD_CYCLIC_INCAST_H_
#define INCAST_WORKLOAD_CYCLIC_INCAST_H_

#include <functional>
#include <vector>

#include "net/topology.h"
#include "sim/random.h"
#include "sim/stable_arena.h"
#include "tcp/tcp_connection.h"

namespace incast::obs {
class Hub;
}  // namespace incast::obs

namespace incast::workload {

enum class BurstSchedule {
  kFixedPeriod,
  kAfterCompletion,
};

class CyclicIncastDriver {
 public:
  struct Config {
    int num_flows{100};
    int num_bursts{11};  // paper: simulate 11, discard the first
    sim::Time burst_duration{sim::Time::milliseconds(15)};
    // Idle gap: period = burst_duration + gap for kFixedPeriod; delay after
    // completion for kAfterCompletion.
    sim::Time inter_burst_gap{sim::Time::milliseconds(10)};
    BurstSchedule schedule{BurstSchedule::kAfterCompletion};
    sim::Time start_jitter_max{sim::Time::microseconds(100)};
    // Demand per flow = bottleneck_rate * burst_duration * demand_scale /
    // num_flows; scale 1.0 sizes the burst to exactly fill the bottleneck
    // for burst_duration.
    double demand_scale{1.0};
  };

  struct BurstRecord {
    int index{0};
    sim::Time started{};
    sim::Time completed{};
    [[nodiscard]] sim::Time completion_time() const noexcept { return completed - started; }
  };

  // The hosts the driver runs over — any topology, not just the dumbbell.
  // Flow i runs senders[i] -> receiver; `bottleneck` (typically the
  // receiver's NIC rate) sizes the per-burst demand.
  struct Endpoints {
    std::vector<net::Host*> senders;
    net::Host* receiver{nullptr};
    sim::Bandwidth bottleneck{};
  };

  // Creates one connection per flow: endpoints.senders[i] -> receiver.
  CyclicIncastDriver(sim::Simulator& sim, const Endpoints& endpoints,
                     const tcp::TcpConfig& tcp_config, const Config& config,
                     std::uint64_t seed);

  // Dumbbell convenience: runs over dumbbell_endpoints(dumbbell, num_flows).
  CyclicIncastDriver(sim::Simulator& sim, net::Dumbbell& dumbbell,
                     const tcp::TcpConfig& tcp_config, const Config& config,
                     std::uint64_t seed);

  // Schedules the burst sequence starting at the current simulation time.
  void start();

  [[nodiscard]] bool finished() const noexcept {
    return completed_bursts_ == config_.num_bursts;
  }
  // Completed bursts, in index order (records appear as bursts complete).
  [[nodiscard]] const std::vector<BurstRecord>& bursts() const noexcept { return records_; }
  [[nodiscard]] std::int64_t demand_per_flow_bytes() const noexcept {
    return demand_per_flow_;
  }

  [[nodiscard]] std::vector<tcp::TcpSender*> senders();
  [[nodiscard]] tcp::TcpConnection& connection(int i) {
    return connections_[static_cast<std::size_t>(i)];
  }

  // Bytes of connection-arena storage — the workload's per-flow state
  // contribution to a bytes-per-flow budget.
  [[nodiscard]] std::size_t connection_bytes() const noexcept {
    return connections_.bytes();
  }

  // Invoked after each burst completes (argument: burst index, 0-based).
  void set_on_burst_complete(std::function<void(int)> cb) {
    on_burst_complete_ = std::move(cb);
  }

 private:
  void start_burst();
  void on_flow_progress(std::int64_t snd_una, int flow_index);
  void complete_burst(int index);

  sim::Simulator& sim_;
  Config config_;
  sim::Rng rng_;
  // Borrowed observability hub (nullptr when the run is unobserved). Burst
  // windows are emitted as async spans keyed by burst index, since
  // kFixedPeriod bursts can overlap in time.
  obs::Hub* hub_{nullptr};
  std::int64_t demand_per_flow_{0};
  // Contiguous chunked flow state: connections are address-pinned, so the
  // arena gives stable addresses without one heap object per flow.
  sim::StableChunkArena<tcp::TcpConnection, 8> connections_;

  int started_bursts_{0};
  int completed_bursts_{0};
  // Per-flow: index of the next burst this flow has yet to complete.
  std::vector<int> flow_next_burst_;
  // Per-burst: flows that have not yet delivered that burst's threshold,
  // and the burst's start time.
  std::vector<int> burst_pending_flows_;
  std::vector<sim::Time> burst_started_;
  std::vector<BurstRecord> records_;
  std::function<void(int)> on_burst_complete_;
};

// The dumbbell's endpoints: sender(i) -> receiver 0 for the first
// `num_flows` senders, bottleneck = the receiver downlink rate.
[[nodiscard]] CyclicIncastDriver::Endpoints dumbbell_endpoints(net::Dumbbell& dumbbell,
                                                               int num_flows);

}  // namespace incast::workload

#endif  // INCAST_WORKLOAD_CYCLIC_INCAST_H_
