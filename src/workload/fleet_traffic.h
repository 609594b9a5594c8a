// FleetTrafficGen: the Section 3 workload — production-like burst traffic
// arriving at one measured receiver host.
//
// Bursts arrive as a renewal process with exponential gaps at the service's
// rate. Each burst samples a flow count K, a duration D, and a target
// utilization U from the ServiceProfile, picks K of the rack's persistent
// connections at random, and hands each (line_rate * D * U) / K bytes, with
// per-flow start jitter. Overlapping bursts are allowed, as in production.
#ifndef INCAST_WORKLOAD_FLEET_TRAFFIC_H_
#define INCAST_WORKLOAD_FLEET_TRAFFIC_H_

#include <memory>
#include <vector>

#include "net/topology.h"
#include "sim/random.h"
#include "tcp/tcp_connection.h"
#include "workload/service_profile.h"

namespace incast::obs {
class Hub;
}  // namespace incast::obs

namespace incast::workload {

class FleetTrafficGen {
 public:
  struct Config {
    ServiceProfile profile;
    // Selects the alternate operating regime for the whole trace (used to
    // model "video"'s slow mode switching across snapshots).
    bool alt_regime{false};
    // The measured host's stable flow-count factor.
    double host_factor{1.0};
    // Which dumbbell receiver this generator's bursts converge on, and the
    // first FlowId to use (so several generators can share one rack
    // without flow-id collisions).
    int receiver_index{0};
    net::FlowId flow_id_base{1};
  };

  // Worker responses arrive spread across the burst, not as one
  // synchronized slam: each flow starts at uniform[0, fraction * D].
  // This is what lets small bursts pass without ECN marking (~50% of
  // production bursts see none, Figure 4b) while large incasts still
  // pile up the queue.
  static constexpr double kStartSpreadFraction = 0.8;
  // Per-flow demand heterogeneity: each flow's share is scaled by
  // uniform[1 - x, 1 + x] (total preserved in expectation).
  static constexpr double kDemandSpread = 0.5;

  struct BurstLogEntry {
    sim::Time at{};
    int flows{0};
    sim::Time duration{};
  };

  // Creates one persistent connection from every dumbbell sender to
  // receiver 0. The dumbbell must have at least profile.max_flows senders.
  FleetTrafficGen(sim::Simulator& sim, net::Dumbbell& dumbbell,
                  const tcp::TcpConfig& tcp_config, const Config& config,
                  std::uint64_t seed);

  // Generates burst arrivals in [now, until).
  void start(sim::Time until);

  // Ground-truth log of generated bursts (for validating the detector).
  [[nodiscard]] const std::vector<BurstLogEntry>& burst_log() const noexcept {
    return burst_log_;
  }

  [[nodiscard]] std::vector<tcp::TcpSender*> senders();

 private:
  void schedule_next_burst(sim::Time until);
  void launch_burst();

  sim::Simulator& sim_;
  obs::Hub* hub_{nullptr};
  net::Dumbbell& dumbbell_;
  Config config_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<tcp::TcpConnection>> connections_;
  std::vector<std::size_t> pick_buffer_;  // scratch for sampling K senders
  std::vector<BurstLogEntry> burst_log_;
};

}  // namespace incast::workload

#endif  // INCAST_WORKLOAD_FLEET_TRAFFIC_H_
