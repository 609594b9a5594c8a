// RackContention: background pressure on a shared switch buffer.
//
// Section 3.4: "simultaneous burst events to other hosts on the same rack
// (i.e., rack-level contention) can consume shared switch memory and likely
// exacerbates a subset of incast bursts." Rather than simulating every
// neighbour's traffic packet-by-packet, this process models their aggregate
// buffer footprint: a Markov on/off source that pins a random amount of the
// shared pool while "on". During contended periods the Dynamic Threshold
// gives the measured queue a smaller cap, producing the occasional deep
// losses of Figure 4c.
#ifndef INCAST_WORKLOAD_RACK_CONTENTION_H_
#define INCAST_WORKLOAD_RACK_CONTENTION_H_

#include "net/shared_buffer.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace incast::workload {

class RackContention {
 public:
  struct Config {
    // Mean lengths of the contended / idle periods.
    sim::Time mean_on{sim::Time::milliseconds(8)};
    sim::Time mean_off{sim::Time::milliseconds(45)};
  };
  // While on, external usage ~ uniform[kMinFraction, kMaxFraction] of the
  // pool's total.
  static constexpr double kMinFraction = 0.55;
  static constexpr double kMaxFraction = 0.88;

  RackContention(sim::Simulator& sim, net::SharedBufferPool& pool, const Config& config,
                 std::uint64_t seed)
      : sim_{sim}, pool_{pool}, config_{config}, rng_{seed} {}

  RackContention(const RackContention&) = delete;
  RackContention& operator=(const RackContention&) = delete;

  // Starts the on/off process (initially off) until `until`.
  void start(sim::Time until);

  [[nodiscard]] bool contended() const noexcept { return on_; }

 private:
  void toggle(sim::Time until);

  sim::Simulator& sim_;
  net::SharedBufferPool& pool_;
  Config config_;
  sim::Rng rng_;
  bool on_{false};
};

}  // namespace incast::workload

#endif  // INCAST_WORKLOAD_RACK_CONTENTION_H_
