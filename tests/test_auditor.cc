// Tests for the run-hardening invariant auditor (sim/auditor.h): every
// invariant violated in isolation, both modes, the execution budgets, and
// end-to-end byte conservation through real experiments (clean, faulty,
// and fleet traces).
#include "sim/auditor.h"

#include <gtest/gtest.h>

#include <atomic>

#include "core/fleet_experiment.h"
#include "core/incast_experiment.h"
#include "sim/simulator.h"
#include "workload/service_profile.h"

namespace incast::sim {
namespace {

using namespace incast::sim::literals;

#if INCAST_AUDIT_ENABLED

// --- Per-invariant injection (unit level: feed the hooks directly) --------

TEST(Auditor, TimeMonotonicViolationThrowsInStrict) {
  Auditor::Config cfg;
  cfg.strict = true;
  Auditor a{cfg};
  EXPECT_NO_THROW(a.on_dispatch(5_us, 5_us));
  try {
    a.on_dispatch(10_us, 5_us);
    FAIL() << "expected AuditFailure";
  } catch (const AuditFailure& e) {
    EXPECT_STREQ(e.invariant(), "time_monotonic");
  }
}

TEST(Auditor, TimeMonotonicViolationCountsInRelaxed) {
  Auditor a;
  a.on_dispatch(10_us, 5_us);
  EXPECT_EQ(a.violations(AuditInvariant::kTimeMonotonic), 1u);
  EXPECT_EQ(a.total_violations(), 1u);
}

TEST(Auditor, LivelockWatchdogFiresAfterStuckWindow) {
  Auditor::Config cfg;
  cfg.livelock_event_limit = 10;
  Auditor a{cfg};
  // Livelock is detected at window granularity: the timestamp is sampled
  // every 8192 events, and a window whose boundary timestamp did not
  // advance counts 8192 stuck events. With a limit of 10, the first full
  // stuck window (events 8193..16384 at the same timestamp) trips it.
  for (int i = 0; i < 8192; ++i) a.on_dispatch(1_us, 1_us);
  EXPECT_EQ(a.violations(AuditInvariant::kLivelock), 0u);
  for (int i = 0; i < 8192; ++i) a.on_dispatch(1_us, 1_us);
  EXPECT_EQ(a.violations(AuditInvariant::kLivelock), 1u);
  // Advancing time re-arms the watchdog: the next boundary sees a new
  // timestamp and resets the stuck-window count.
  for (int i = 0; i < 8192; ++i) a.on_dispatch(1_us, 2_us);
  EXPECT_EQ(a.violations(AuditInvariant::kLivelock), 1u);
}

TEST(Auditor, LivelockNotTrippedByAdvancingTime) {
  Auditor::Config cfg;
  cfg.livelock_event_limit = 4;
  Auditor a{cfg};
  // Time advances by 1ns per event across several 8192-event windows, so
  // every boundary sees a fresh timestamp and the watchdog stays quiet.
  for (int i = 1; i <= 3 * 8192; ++i) {
    a.on_dispatch(Time::nanoseconds(i), Time::nanoseconds(i));
  }
  EXPECT_EQ(a.violations(AuditInvariant::kLivelock), 0u);
}

TEST(Auditor, EventBudgetThrows) {
  Auditor::Config cfg;
  cfg.max_events = 5;
  Auditor a{cfg};
  for (int i = 0; i < 5; ++i) a.on_dispatch(1_us, 2_us);
  EXPECT_THROW(a.on_dispatch(1_us, 2_us), BudgetExceeded);
}

TEST(Auditor, WallBudgetThrowsAtPeriodicCheck) {
  Auditor::Config cfg;
  cfg.max_wall_ms = 1e-9;  // any elapsed time exceeds this
  Auditor a{cfg};
  // First periodic boundary captures the start; the second must throw.
  auto spin = [&] {
    for (int i = 0; i < 8192; ++i) a.on_dispatch(1_us, 2_us);
  };
  EXPECT_NO_THROW(spin());
  EXPECT_THROW(spin(), BudgetExceeded);
}

TEST(Auditor, CancellationFlagThrowsRunCancelled) {
  std::atomic<bool> cancel{false};
  Auditor::Config cfg;
  cfg.cancel = &cancel;
  Auditor a{cfg};
  for (int i = 0; i < 8192; ++i) a.on_dispatch(1_us, 2_us);
  cancel.store(true);
  auto spin = [&] {
    for (int i = 0; i < 8192; ++i) a.on_dispatch(1_us, 2_us);
  };
  EXPECT_THROW(spin(), RunCancelled);
}

TEST(Auditor, ConservationBalancedIsClean) {
  Auditor::Config cfg;
  cfg.strict = true;
  Auditor a{cfg};
  a.on_bytes_injected(1000);
  a.on_bytes_delivered(400);
  a.on_bytes_dropped(100);
  EXPECT_NO_THROW(a.check_conservation(500));
  EXPECT_EQ(a.total_violations(), 0u);
}

TEST(Auditor, ConservationImbalanceViolates) {
  Auditor a;
  a.on_bytes_injected(1000);
  a.on_bytes_delivered(400);
  a.check_conservation(0);
  EXPECT_EQ(a.violations(AuditInvariant::kConservation), 1u);
}

TEST(Auditor, NegativeDepthViolates) {
  Auditor a;
  a.record_depth("test.queue", -1, 5);
  a.record_depth("test.wire", 0, -42);
  a.record_depth("test.ok", 0, 0);
  EXPECT_EQ(a.violations(AuditInvariant::kNegativeDepth), 2u);
}

TEST(Auditor, CwndBoundsViolations) {
  Auditor::Config cfg;
  cfg.max_cwnd_bytes = 1'000'000;
  Auditor a{cfg};
  a.check_cwnd(1, 1460);       // fine
  a.check_cwnd(2, 0);          // non-positive
  a.check_cwnd(3, -5);         // negative
  a.check_cwnd(4, 2'000'000);  // above cap
  EXPECT_EQ(a.violations(AuditInvariant::kCwndBounds), 3u);
}

TEST(Auditor, RtoBoundsViolations) {
  Auditor::Config cfg;
  cfg.min_rto = 1_ms;
  cfg.max_rto = 10_s;
  Auditor a{cfg};
  a.check_rto(1, 200_ms);  // fine
  a.check_rto(2, 1_us);    // below floor
  a.check_rto(3, 60_s);    // above cap
  EXPECT_EQ(a.violations(AuditInvariant::kRtoBounds), 2u);
}

TEST(Auditor, ViolationSinkSeesEveryViolation) {
  std::vector<AuditInvariant> seen;
  Auditor a;
  a.set_violation_sink([&seen](const Auditor::Violation& v) {
    seen.push_back(v.invariant);
  });
  a.record_depth("q", -1, 0);
  a.check_cwnd(1, -1);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], AuditInvariant::kNegativeDepth);
  EXPECT_EQ(seen[1], AuditInvariant::kCwndBounds);
}

TEST(Auditor, StrictSinkRunsBeforeThrow) {
  Auditor::Config cfg;
  cfg.strict = true;
  Auditor a{cfg};
  bool sank = false;
  a.set_violation_sink([&sank](const Auditor::Violation&) { sank = true; });
  EXPECT_THROW(a.record_depth("q", -1, 0), AuditFailure);
  EXPECT_TRUE(sank);
}

// --- Simulator integration ----------------------------------------------

TEST(Auditor, SimulatorFeedsDispatchHook) {
  Simulator sim;
  Auditor a;
  sim.set_auditor(&a);
  int fired = 0;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(Time::microseconds(i), [&fired] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(a.events_seen(), 5u);
  EXPECT_EQ(a.total_violations(), 0u);
}

TEST(Auditor, SimulatorLivelockDetected) {
  Simulator sim;
  Auditor::Config cfg;
  cfg.strict = true;
  cfg.livelock_event_limit = 100;
  Auditor a{cfg};
  sim.set_auditor(&a);
  // A component that reschedules itself at now() forever.
  struct Respawn {
    Simulator& sim;
    void operator()() const { sim.schedule_at(sim.now(), Respawn{sim}); }
  };
  sim.schedule_at(1_us, Respawn{sim});
  EXPECT_THROW(sim.run(), AuditFailure);
}

// --- Experiment-level conservation (the ledger must balance end to end) --

core::IncastExperimentConfig small_incast(sim::AuditMode mode) {
  core::IncastExperimentConfig cfg;
  cfg.num_flows = 8;
  cfg.num_bursts = 2;
  cfg.discard_bursts = 1;
  cfg.burst_duration = 1_ms;
  cfg.audit_mode = mode;
  return cfg;
}

TEST(Auditor, CleanIncastRunConservesBytes) {
  // Strict mode: any ledger imbalance (or other invariant breach) throws.
  const auto result = core::run_incast_experiment(small_incast(AuditMode::kStrict));
  EXPECT_EQ(result.audit_violations, 0u);
  EXPECT_GT(result.events_processed, 0u);
}

TEST(Auditor, FaultyIncastRunConservesBytes) {
  // Drops, corruption, and duplication all reshape the ledger; it must
  // still balance (duplicates count as fresh injections, corrupt frames as
  // delivered, faulted frames as dropped).
  auto cfg = small_incast(AuditMode::kStrict);
  cfg.faults.forward.drop_rate = 0.05;
  cfg.faults.forward.corrupt_rate = 0.02;
  cfg.faults.forward.duplicate_rate = 0.02;
  cfg.faults.reverse.drop_rate = 0.02;
  const auto result = core::run_incast_experiment(cfg);
  EXPECT_EQ(result.audit_violations, 0u);
  EXPECT_GT(result.injected_drops, 0);
}

TEST(Auditor, RelaxedModeMatchesOffModeByteForByte) {
  auto strict = small_incast(AuditMode::kRelaxed);
  auto off = small_incast(AuditMode::kOff);
  const auto r1 = core::run_incast_experiment(strict);
  const auto r2 = core::run_incast_experiment(off);
  // The auditor observes; it must never perturb the simulation.
  EXPECT_EQ(r1.events_processed, r2.events_processed);
  EXPECT_EQ(r1.avg_bct_ms, r2.avg_bct_ms);
  EXPECT_EQ(r1.queue_drops, r2.queue_drops);
}

TEST(Auditor, FleetTraceConservesBytes) {
  core::FleetConfig cfg;
  cfg.profile = workload::service_by_name("messaging");
  cfg.profile.max_flows = 60;
  cfg.profile.body_median_flows = 30.0;
  cfg.num_hosts = 1;
  cfg.num_snapshots = 1;
  cfg.trace_duration = 100_ms;
  cfg.audit_mode = AuditMode::kStrict;
  const core::FleetExperiment exp{cfg};
  const auto result = exp.run_host_trace(0, 0);
  EXPECT_EQ(result.audit_violations, 0u);
}

TEST(Auditor, EventBudgetAbortsExperiment) {
  auto cfg = small_incast(AuditMode::kRelaxed);
  cfg.audit.max_events = 500;  // far fewer than a full run needs
  EXPECT_THROW(core::run_incast_experiment(cfg), BudgetExceeded);
}

TEST(Auditor, LookaheadViolationThrowsInStrictCountsInRelaxed) {
  Auditor relaxed;
  relaxed.report_lookahead(/*entry_ns=*/100, /*window_end_ns=*/200);
  EXPECT_EQ(relaxed.violations(AuditInvariant::kLookahead), 1u);
  EXPECT_STREQ(to_string(AuditInvariant::kLookahead), "lookahead");

  Auditor strict{Auditor::Config{.strict = true}};
  try {
    strict.report_lookahead(100, 200);
    FAIL() << "expected AuditFailure";
  } catch (const AuditFailure& e) {
    EXPECT_STREQ(e.invariant(), "lookahead");
  }
}

TEST(Auditor, MergeFromFoldsLedgersViolationsAndEventCounts) {
  // The parallel engine's teardown path: per-domain ledgers must fold into
  // one exact global ledger, so strict conservation holds fabric-wide even
  // though no single domain's books balance on their own.
  Auditor a;
  Auditor b;
  a.on_bytes_injected(1000);      // domain A injects...
  b.on_bytes_delivered(600);      // ...domain B receives
  b.on_bytes_dropped(150);
  b.on_bytes_trimmed(50);
  a.on_control_injected(64);
  b.on_control_consumed(64);
  b.report_lookahead(1, 2);
  a.on_dispatch(Time::zero(), 1_us);
  b.on_dispatch(Time::zero(), 1_us);

  Auditor merged;
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.injected_bytes(), 1000);
  EXPECT_EQ(merged.delivered_bytes(), 600);
  EXPECT_EQ(merged.dropped_bytes(), 150);
  EXPECT_EQ(merged.trimmed_bytes(), 50);
  EXPECT_EQ(merged.control_injected_bytes(), 64);
  EXPECT_EQ(merged.control_consumed_bytes(), 64);
  EXPECT_EQ(merged.violations(AuditInvariant::kLookahead), 1u);
  EXPECT_EQ(merged.events_seen(), 2u);
  // 1000 + 64 == 600 + 64 + 150 + 50 + residual 200: books balance.
  merged.check_conservation(/*residual_bytes=*/200);
  EXPECT_EQ(merged.violations(AuditInvariant::kConservation), 0u);
}

#endif  // INCAST_AUDIT_ENABLED

TEST(Auditor, ModeAndInvariantNames) {
  EXPECT_STREQ(to_string(AuditMode::kStrict), "strict");
  EXPECT_STREQ(to_string(AuditInvariant::kConservation), "conservation");
}

}  // namespace
}  // namespace incast::sim
