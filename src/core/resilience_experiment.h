// ResilienceExperiment: the Section 4 cyclic incast, run under injected
// link faults.
//
// The paper's safe / degenerate / collapse modes are derived on ideal
// links. This harness asks what production actually faces: how much random
// loss, burst loss, corruption, or link flapping a given operating point
// tolerates before its behavior shifts mode. It runs one fault-free
// baseline, then one run per sweep point (drop rates, then flap durations),
// and reports goodput degradation relative to the baseline, recovery time
// after each flap, and the behavioral mode of every point.
#ifndef INCAST_CORE_RESILIENCE_EXPERIMENT_H_
#define INCAST_CORE_RESILIENCE_EXPERIMENT_H_

#include <vector>

#include "core/incast_experiment.h"
#include "core/run_harness.h"
#include "sim/sweep.h"

namespace incast::core {

// Behavioral classification of one run, mirroring the paper's Section 4
// modes but judged from observed recovery behavior (so a fault-induced
// timeout counts as collapse even when the queue never overflowed —
// that *is* the mode boundary shifting).
enum class DctcpMode {
  kSafe,        // no timeouts, queue oscillates below a standing level
  kDegenerate,  // no timeouts, but a standing queue marks nearly everything
  kCollapse,    // recovery is RTO-bound
};

[[nodiscard]] const char* to_string(DctcpMode m) noexcept;

// Classifies from the two observables that define the modes (timeouts and
// the marked fraction), so every cyclic incast, dumbbell or fabric, is
// judged by the same rule.
[[nodiscard]] DctcpMode classify_mode(const CyclicIncastResult& result) noexcept;

struct ResiliencePoint {
  double drop_rate{0.0};
  sim::Time flap_duration{sim::Time::zero()};
  IncastExperimentResult result;
  // Baseline avg BCT / this point's avg BCT. Under the equal-demand cyclic
  // workload each burst delivers a fixed byte count, so inverse completion
  // time is goodput; 1.0 = no degradation.
  double goodput_rel{1.0};
  // For flap points: time from link restoration until the burst that was in
  // flight during the flap completes (zero when the flap hit an idle gap).
  double recovery_after_flap_ms{0.0};
  DctcpMode mode{DctcpMode::kSafe};
};

// The sweep points run concurrently on the shared immutable base config, so
// the report is identical at any jobs value. The baseline always runs first
// (every point's goodput is normalized against it), outside the sweep and
// its policy: a baseline failure always aborts. base.hub observes the
// baseline alone.
struct ResilienceConfig : SweepOptions<ResiliencePoint> {
  // Base experiment (flows, CC, queue, schedule, seed ...). Its `faults`
  // field is ignored; each sweep point installs its own profile.
  IncastExperimentConfig base{};

  // Sweep axis 1: i.i.d. drop rates on the inter-ToR data direction. A 0.0
  // entry runs with the fault layer fully disabled and must reproduce the
  // baseline exactly.
  std::vector<double> drop_rates{};

  // Extra per-packet faults applied to every drop-rate point (corruption,
  // duplication, reordering, Gilbert-Elliott knobs). drop_rate inside this
  // template is overridden by the sweep value.
  fault::LinkFaultConfig fault_template{};

  // Sweep axis 2: flap durations; each runs as its own point with the link
  // blackholed (both directions) at flap_at for that duration.
  std::vector<sim::Time> flap_durations{};
  sim::Time flap_at{sim::Time::milliseconds(30)};
};

struct ResilienceReport {
  IncastExperimentResult baseline;
  DctcpMode baseline_mode{DctcpMode::kSafe};
  std::vector<ResiliencePoint> points;
  // Wall-time/events stats of the sweep over `points` (baseline excluded).
  sim::SweepRunner::RunStats sweep;
};

// Runs baseline + every sweep point. Deterministic: the same config (seed
// included) produces an identical report.
[[nodiscard]] ResilienceReport run_resilience_experiment(const ResilienceConfig& config);

}  // namespace incast::core

#endif  // INCAST_CORE_RESILIENCE_EXPERIMENT_H_
