// Topology builders.
//
// Dumbbell reproduces the paper's Section 4 setup: N sender hosts, each on a
// 10 Gbps link to a sender-side ToR, a 100 Gbps inter-ToR link, and one (or
// more) receiver hosts on 10 Gbps downlinks from the receiver-side ToR. The
// incast bottleneck is the receiver ToR's downlink queue. Multiple receivers
// on the same ToR model rack-level buffer contention (Section 3.4) when a
// shared buffer pool is enabled.
#ifndef INCAST_NET_TOPOLOGY_H_
#define INCAST_NET_TOPOLOGY_H_

#include <memory>
#include <optional>
#include <vector>

#include "net/host.h"
#include "net/link_directory.h"
#include "net/switch.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace incast::net {

struct DumbbellConfig {
  int num_senders{100};
  int num_receivers{1};
  // Host-ToR link rate. The paper uses 10 Gbps for the 10:1 oversubscription
  // against the 100 Gbps inter-ToR link.
  sim::Bandwidth host_link{sim::Bandwidth::gigabits_per_second(10)};
  sim::Bandwidth core_link{sim::Bandwidth::gigabits_per_second(100)};
  // Receiver downlink rate; unset means host_link. Setting it below
  // host_link makes the receiver downlink a bottleneck even for one sender
  // (used by loss-recovery tests and asymmetric-rate experiments).
  std::optional<sim::Bandwidth> receiver_link;
  // Per-link propagation delay. Default yields a ~30 us base RTT over the
  // three-hop path once serialization is included.
  sim::Time link_delay{sim::Time::nanoseconds(4500)};
  // Egress queue config for every switch port (capacity 1333 pkts = 2 MB of
  // MTU frames, ECN mark at 65 pkts — the paper's simulation settings).
  DropTailQueue::Config switch_queue{.capacity_packets = 1333, .ecn_threshold_packets = 65};
  // Host NIC queue: effectively unbounded and unmarked; cwnd limits what a
  // host can have queued locally.
  DropTailQueue::Config host_queue{.capacity_packets = 1'000'000, .ecn_threshold_packets = 0};
  // If set, the receiver-side ToR shares one buffer pool across its egress
  // queues (Dynamic Threshold), as production ToRs do.
  std::optional<SharedBufferPool::Config> shared_buffer;
  // If set, both ToRs run PFC lossless Ethernet: per-ingress virtual input
  // queues that pause the upstream hop (hosts included) at XOFF. Combine
  // with large switch_queue capacities so PFC backpressure, not tail drop,
  // is the binding constraint.
  std::optional<LosslessInputQueue::Config> pfc;
};

class Dumbbell : public LinkDirectory {
 public:
  Dumbbell(sim::Simulator& sim, const DumbbellConfig& config);

  [[nodiscard]] Host& sender(int i) { return *senders_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] Host& receiver(int i = 0) {
    return *receivers_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] Switch& sender_tor() noexcept { return *tor_s_; }
  [[nodiscard]] Switch& receiver_tor() noexcept { return *tor_r_; }

  // The incast bottleneck: receiver ToR's egress queue toward receiver i.
  [[nodiscard]] DropTailQueue& bottleneck_queue(int i = 0);

  // All switches, for teardown checks (check_no_unrouted).
  [[nodiscard]] std::vector<Switch*> switches() { return {tor_s_.get(), tor_r_.get()}; }

  [[nodiscard]] int num_senders() const noexcept { return config_.num_senders; }
  [[nodiscard]] int num_receivers() const noexcept { return config_.num_receivers; }
  [[nodiscard]] const DumbbellConfig& config() const noexcept { return config_; }

  // Base (unloaded) RTT between a sender and a receiver for an MTU-sized
  // data packet and its pure ACK.
  [[nodiscard]] sim::Time base_rtt(std::int64_t data_bytes = 1500) const;

 private:
  DumbbellConfig config_;
  std::vector<std::unique_ptr<Host>> senders_;
  std::vector<std::unique_ptr<Host>> receivers_;
  std::unique_ptr<Switch> tor_s_;
  std::unique_ptr<Switch> tor_r_;
  // Port index on tor_r_ of the downlink to receiver i.
  std::vector<std::size_t> receiver_downlink_port_;
};

}  // namespace incast::net

#endif  // INCAST_NET_TOPOLOGY_H_
