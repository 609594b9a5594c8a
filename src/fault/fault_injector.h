// FaultInjector: deterministic, seeded link-fault injection.
//
// Production incast does not happen on ideal links: fabrics see random
// bit-error loss, bursty loss episodes, link flaps, corrupted frames,
// duplicated and reordered packets. This layer injects all of those at the
// net::Port level (via net::LinkHook) so the TCP stack's recovery machinery
// — SACK, fast retransmit, TLP, RTO exponential backoff — is exercised by
// non-congestion loss that the bottleneck queue never sees.
//
// Determinism is a hard invariant: every probabilistic decision comes from a
// sim::Rng stream forked per installed link, consumed in event order, so a
// seed fully determines which packets are dropped/corrupted/duplicated.
// Disabled fault types consume no draws, and a link that is flapped down
// consumes no draws either, so enabling one fault never perturbs another's
// stream. When no fault is configured, nothing is installed and the
// simulation is bit-for-bit identical to a run without this layer.
#ifndef INCAST_FAULT_FAULT_INJECTOR_H_
#define INCAST_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/node.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace incast::obs {
class Hub;
}  // namespace incast::obs

namespace incast::fault {

// Per-link fault parameters. All rates are per-packet probabilities in
// [0, 1]; a zero rate disables that fault type entirely (no RNG draw).
struct LinkFaultConfig {
  // i.i.d. random loss: each packet is independently dropped.
  double drop_rate{0.0};

  // Gilbert-Elliott two-state burst loss. The chain transitions once per
  // packet (good -> bad with probability ge_good_to_bad, bad -> good with
  // ge_bad_to_good), then the packet is dropped with the current state's
  // loss probability. Enabled when ge_good_to_bad > 0.
  double ge_good_to_bad{0.0};
  double ge_bad_to_good{0.1};
  double ge_drop_good{0.0};
  double ge_drop_bad{1.0};

  // Payload corruption: the packet is delivered but flagged corrupted; the
  // receiving NIC discards it silently (no dup-ACKs — recovery must come
  // from SACK holes or RTO).
  double corrupt_rate{0.0};

  // Duplication: a second copy arrives immediately after the original.
  double duplicate_rate{0.0};

  // Bounded reordering: the packet's propagation is stretched by a uniform
  // extra delay in (0, reorder_max_delay], letting later packets overtake.
  double reorder_rate{0.0};
  sim::Time reorder_max_delay{sim::Time::microseconds(50)};

  [[nodiscard]] bool ge_enabled() const noexcept { return ge_good_to_bad > 0.0; }
  [[nodiscard]] bool any_enabled() const noexcept {
    return drop_rate > 0.0 || ge_enabled() || corrupt_rate > 0.0 ||
           duplicate_rate > 0.0 || reorder_rate > 0.0;
  }
};

// One scheduled link outage: the link blackholes every packet in
// [down_at, down_at + duration) and then restores. Overlapping windows
// compose (the link is down while any window covers the current time).
struct FlapWindow {
  sim::Time down_at{};
  sim::Time duration{};
};

enum class FaultType : std::uint8_t {
  kRandomDrop,  // i.i.d. Bernoulli loss
  kBurstDrop,   // Gilbert-Elliott bad-state loss
  kFlapDrop,    // link down (blackhole)
  kCorrupt,
  kDuplicate,
  kReorder,
};

[[nodiscard]] const char* to_string(FaultType t) noexcept;

// Cumulative per-fault-type counters for one link (or summed across links).
// injected_drops() is the figure to compare against DropTailQueue's
// dropped_packets: the two never overlap, so congestion loss and injected
// loss stay separately attributable.
struct FaultCounters {
  std::int64_t packets_seen{0};  // packets that reached the hook
  std::int64_t random_drops{0};
  std::int64_t burst_drops{0};
  std::int64_t flap_drops{0};
  std::int64_t corrupted{0};
  std::int64_t corrupted_bytes{0};  // wire bytes of corrupted frames
  std::int64_t duplicated{0};
  std::int64_t reordered{0};

  [[nodiscard]] std::int64_t injected_drops() const noexcept {
    return random_drops + burst_drops + flap_drops;
  }
};

// One injected fault, recorded in event order. The trace is what the
// determinism tests compare: same seed => identical sequence.
struct FaultEvent {
  sim::Time at{};
  FaultType type{FaultType::kRandomDrop};
  std::uint64_t packet_uid{0};
  bool data{false};        // packet carried TCP payload
  bool retransmit{false};  // packet was a TCP retransmission

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

// Fault state for one unidirectional link. Normally created through
// FaultInjector::install(), but directly constructible for unit tests that
// drive on_transmit() by hand.
class LinkFault final : public net::LinkHook {
 public:
  LinkFault(const LinkFaultConfig& config, sim::Rng rng) noexcept
      : config_{config}, rng_{rng} {}

  Verdict on_transmit(const net::Packet& p, sim::Time now) override;

  // Flap state, manipulated by FaultInjector::schedule_flap. A counter, not
  // a flag, so overlapping windows compose correctly.
  void begin_flap() noexcept { ++down_windows_; }
  void end_flap() noexcept { --down_windows_; }
  [[nodiscard]] bool link_up() const noexcept { return down_windows_ == 0; }

  [[nodiscard]] bool ge_in_bad_state() const noexcept { return ge_bad_; }
  [[nodiscard]] const FaultCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const LinkFaultConfig& config() const noexcept { return config_; }

  // Event trace: one small record per *fault*, not per packet, so the cost
  // is proportional to the damage done.
  [[nodiscard]] const std::vector<FaultEvent>& trace() const noexcept { return trace_; }

  // Observability: injected faults additionally become "fault.<type>"
  // instants on the fault track. Set by FaultInjector::install().
  void set_hub(obs::Hub* hub) noexcept { hub_ = hub; }

 private:
  void record(sim::Time at, FaultType type, const net::Packet& p);

  LinkFaultConfig config_;
  sim::Rng rng_;
  int down_windows_{0};
  bool ge_bad_{false};
  obs::Hub* hub_{nullptr};
  FaultCounters counters_;
  std::vector<FaultEvent> trace_;
};

// Owns the fault state for a set of links and the master RNG stream.
// Install on any net::Port; each installed link forks its own child stream,
// so adding a fault to one link never changes another link's decisions.
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, std::uint64_t seed) noexcept
      : sim_{sim}, rng_{seed} {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Installs fault behavior on `port`'s outgoing direction. The returned
  // LinkFault is owned by the injector and lives until the injector dies
  // (which must outlive the port's traffic).
  LinkFault& install(net::Port& port, const LinkFaultConfig& config);

  // Schedules a blackhole window on one link direction. Windows may overlap;
  // non-positive durations are ignored. Must be called at (or before) the
  // simulation time `down_at`.
  void schedule_flap(LinkFault& link, sim::Time down_at, sim::Time duration);

  [[nodiscard]] std::size_t num_links() const noexcept { return links_.size(); }
  [[nodiscard]] LinkFault& link(std::size_t i) { return *links_.at(i); }

  // Counters summed over every installed link.
  [[nodiscard]] FaultCounters total() const noexcept;

 private:
  sim::Simulator& sim_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<LinkFault>> links_;
};

}  // namespace incast::fault

#endif  // INCAST_FAULT_FAULT_INJECTOR_H_
