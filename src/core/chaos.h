// core::chaos — seeded random-config fuzzing under the strict auditor.
//
// Generates K pseudo-random (but fully deterministic in the seed) incast
// configurations spanning the CLI's knob space — congestion control, flow
// counts, queue/ECN geometry, burst shape, fault injection, fleet service
// traces — and runs each under AuditMode::kStrict with an event budget. Any
// invariant violation (conservation, negative depth, time going backwards,
// cwnd/RTO bounds, livelock) or budget blowout surfaces as a quarantined
// TaskFailure instead of a silent wrong number. CI runs a fixed seed every
// push; the knob space is the fuzz corpus and the auditor is the oracle.
#ifndef INCAST_CORE_CHAOS_H_
#define INCAST_CORE_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_harness.h"
#include "sim/sweep.h"

namespace incast::core {

struct ChaosRunResult {
  std::string description;  // one line: kind + the knobs that define the run
  std::uint64_t seed{0};
  std::uint64_t events_processed{0};
};

// The sweep options: each generated config is an independent simulation.
// run_chaos always quarantines, so sweep.fail_fast and sweep.max_attempts
// are ignored; sweep.cancel also stops every generated run.
struct ChaosConfig : SweepOptions<ChaosRunResult> {
  std::uint64_t seed{7};
  int num_configs{25};
  // Strict-auditor budgets per generated run: a pathological config must
  // fail fast (BudgetExceeded -> quarantined), not hang CI.
  std::uint64_t max_events_per_run{20'000'000};
  double max_wall_ms_per_run{0.0};
};

struct ChaosReport {
  std::vector<ChaosRunResult> runs;  // failed/skipped runs keep an empty description
  sim::SweepRunner::RunStats sweep;
};

// The per-index derived seed (exposed so the CLI can journal it and tests
// can pin expectations): derive_task_seed(config.seed, index).
[[nodiscard]] std::uint64_t chaos_run_seed(const ChaosConfig& config,
                                           std::size_t index) noexcept;

// Runs every generated config under quarantine (never fail-fast: the whole
// point is a full accounting of which configs broke which invariant).
[[nodiscard]] ChaosReport run_chaos(const ChaosConfig& config);

}  // namespace incast::core

#endif  // INCAST_CORE_CHAOS_H_
