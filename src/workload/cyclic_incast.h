// CyclicIncastDriver: the Section 4 workload, and the yardstick for the
// Section 5 alternatives, which must be compared on identical demand.
//
// N persistent flows share a bottleneck. Each burst hands every flow an
// equal share of (bottleneck_rate x burst_duration) bytes; flow start times
// are jittered uniformly in [0, start_jitter_max] (100 us) "to model
// variations in processing time". Connections persist across bursts, so
// congestion state carries over — the precondition for the Section 4.3
// burst-boundary divergence.
//
// Two schedules are supported:
//  * kAfterCompletion (default): the next burst begins `gap` after the
//    previous one fully completes — a request/response pattern with think
//    time.
//  * kFixedPeriod (the paper's cyclic workload): burst i begins at
//    i * (burst_duration + gap) regardless of progress. When recovery
//    stretches a burst past its period (Mode 3), later bursts pile onto the
//    backlog, which is exactly what makes 1000-flow incasts catastrophic.
//
// Flows run TCP, or the receiver-driven credit transport (rdt): one
// CreditSender per flow and one CreditReceiver that paces grants to the
// bottleneck. An optional admission window (`group_size`) stages the
// incast, the Section 5.2 proposal: at most group_size flows hold
// undelivered demand at once, the rest wait in flow order, and each flow
// completion admits the next.
//
// Per-burst completion is tracked by cumulative delivery thresholds (flow f
// has completed burst i once it has delivered (i+1) * demand bytes: the
// TCP sender's cumulative ACK, or the credit receiver's received bytes),
// which is well-defined even when bursts overlap.
#ifndef INCAST_WORKLOAD_CYCLIC_INCAST_H_
#define INCAST_WORKLOAD_CYCLIC_INCAST_H_

#include <functional>
#include <memory>
#include <variant>
#include <vector>

#include "net/topology.h"
#include "rdt/credit_transport.h"
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
    // Admission window: at most this many flows hold undelivered demand at
    // once (a sliding window, as a receiver-driven scheduler would pull
    // responses). 0 = every flow starts at burst start.
    int group_size{0};
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

  // The credit transport's two sides. The receiver's line rate is set to
  // the endpoints' bottleneck.
  struct CreditFlows {
    rdt::CreditSender::Config sender{};
    rdt::CreditReceiver::Config receiver{};
  };
  // What every flow runs: a TCP connection, or a credit sender.
  using Transport = std::variant<tcp::TcpConfig, CreditFlows>;

  // Creates one flow per sender: endpoints.senders[i] -> receiver.
  CyclicIncastDriver(sim::Simulator& sim, const Endpoints& endpoints,
                     const Transport& transport, const Config& config, std::uint64_t seed);

  // Dumbbell convenience: runs over dumbbell_endpoints(dumbbell, num_flows).
  CyclicIncastDriver(sim::Simulator& sim, net::Dumbbell& dumbbell, const Transport& transport,
                     const Config& config, std::uint64_t seed);

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

  // TCP flows. A credit-flow driver has none: senders() is empty.
  [[nodiscard]] std::vector<tcp::TcpSender*> senders();
  [[nodiscard]] tcp::TcpConnection& connection(int i) {
    return connections_[static_cast<std::size_t>(i)];
  }

  // Credit flows. A TCP driver has none: credit_senders() is empty and
  // credit_receiver() must not be called.
  [[nodiscard]] std::vector<rdt::CreditSender*> credit_senders();
  [[nodiscard]] rdt::CreditReceiver& credit_receiver() { return *credit_receiver_; }

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
  // Hands waiting flows their demand while the admission window has room.
  void admit_waiting();
  // `delivered`: the flow's cumulative bytes delivered to the receiver.
  void on_flow_progress(std::int64_t delivered, int flow_index);
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
  std::unique_ptr<rdt::CreditReceiver> credit_receiver_;
  sim::StableChunkArena<rdt::CreditSender, 8> credit_senders_;

  int started_bursts_{0};
  int completed_bursts_{0};
  // Flow-bursts handed their demand so far (the k-th goes to flow
  // k % num_flows), and how many of those are not yet delivered.
  std::int64_t admitted_{0};
  int active_{0};
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
