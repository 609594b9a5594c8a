// Tail-autopsy contract: the FlowTracer's exact-conservation interval
// machine, jobs-invariant sampling, the drain split, and the
// fct_breakdown.csv artifact the determinism suite byte-compares.
//
// The experiment-scale suite's name contains "Sweep" so the TSan CI leg
// (ctest -R 'Sweep') races flow-traced grids across a real worker pool.
#include "obs/flow_trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/collateral_experiment.h"
#include "core/incast_experiment.h"
#include "net/packet.h"

namespace incast {
namespace {

using BlockReason = obs::FlowTracer::BlockReason;
using UnblockCause = obs::FlowTracer::UnblockCause;

TEST(FlowTrace, DrainSplitsOverHopResidencyAndConservesExactly) {
  obs::FlowTracer tracer{{.seed = 1, .sample_every = 1}};
  // App hands data at t=100; cwnd-limited until the ACK at t=400; then the
  // final window drains until t=1000.
  tracer.on_period_start(7, 100);
  tracer.on_unblocked(7, 100, UnblockCause::kApp);
  tracer.on_blocked(7, 100, BlockReason::kCwndLimited);
  tracer.on_unblocked(7, 400, UnblockCause::kAck);
  tracer.on_blocked(7, 400, BlockReason::kDrain);
  // Hop residency: host queue 50, ToR queue 100, wire 2 x (10 ser + 20 prop).
  tracer.on_hop(7, obs::HopTier::kHost, 50, 0, 10, 20);
  tracer.on_hop(7, obs::HopTier::kTor, 100, 0, 10, 20);
  tracer.on_unblocked(7, 1000, UnblockCause::kAck);
  tracer.on_flow_complete(7, 1000);

  const auto flows = tracer.finalize(1000);
  ASSERT_EQ(flows.size(), 1u);
  const obs::FlowBreakdown& f = flows[0];
  EXPECT_EQ(f.flow, 7u);
  EXPECT_EQ(f.fct_ns, 900);
  EXPECT_EQ(f.cwnd_limited_ns, 300);
  // 600 ns of drain split over weights {ser 20, prop 40, host 50, tor 100}
  // (total 210) by floor division; the 2 ns remainder lands in other.
  EXPECT_EQ(f.serialization_ns, 600 * 20 / 210);
  EXPECT_EQ(f.propagation_ns, 600 * 40 / 210);
  EXPECT_EQ(f.q_host_ns, 600 * 50 / 210);
  EXPECT_EQ(f.q_tor_ns, 600 * 100 / 210);
  EXPECT_EQ(f.q_agg_ns, 0);
  EXPECT_EQ(f.q_spine_ns, 0);
  EXPECT_EQ(f.pfc_pause_ns, 0);
  EXPECT_EQ(f.other_ns, 2);
  EXPECT_EQ(f.component_sum(), f.fct_ns);  // the invariant, exactly
}

TEST(FlowTrace, RecoveryCausesWinOverTheStoredBlockReason) {
  obs::FlowTracer tracer{{.seed = 1, .sample_every = 1}};
  tracer.on_period_start(3, 0);
  tracer.on_unblocked(3, 0, UnblockCause::kApp);
  tracer.on_blocked(3, 0, BlockReason::kCwndLimited);
  // The RTO fires: the whole wait was spent reaching it, regardless of why
  // the sender originally blocked.
  tracer.on_unblocked(3, 5000, UnblockCause::kRto);
  tracer.on_blocked(3, 5000, BlockReason::kDrain);
  tracer.on_unblocked(3, 5600, UnblockCause::kNack);
  tracer.on_blocked(3, 5600, BlockReason::kFastRecovery);
  tracer.on_unblocked(3, 5900, UnblockCause::kAck);
  tracer.on_flow_complete(3, 5900);

  const auto flows = tracer.finalize(5900);
  ASSERT_EQ(flows.size(), 1u);
  const obs::FlowBreakdown& f = flows[0];
  EXPECT_EQ(f.rto_wait_ns, 5000);
  EXPECT_EQ(f.nack_recovery_ns, 600);
  EXPECT_EQ(f.fast_recovery_ns, 300);
  EXPECT_EQ(f.component_sum(), f.fct_ns);
}

TEST(FlowTrace, UnknownTierResidencyLandsInOther) {
  obs::FlowTracer tracer{{.seed = 1, .sample_every = 1}};
  tracer.on_period_start(1, 0);
  tracer.on_unblocked(1, 0, UnblockCause::kApp);
  tracer.on_blocked(1, 0, BlockReason::kDrain);
  tracer.on_hop(1, obs::HopTier::kUnknown, 80, 0, 0, 0);
  tracer.on_unblocked(1, 500, UnblockCause::kAck);
  tracer.on_flow_complete(1, 500);

  const auto flows = tracer.finalize(500);
  ASSERT_EQ(flows.size(), 1u);
  // All residency is unknown-tier: no named component may claim the drain.
  EXPECT_EQ(flows[0].other_ns, 500);
  EXPECT_EQ(flows[0].component_sum(), flows[0].fct_ns);
}

TEST(FlowTrace, IncompleteFlowsAreCountedAndExcluded) {
  obs::FlowTracer tracer{{.seed = 1, .sample_every = 1}};
  tracer.on_period_start(9, 0);
  tracer.on_unblocked(9, 0, UnblockCause::kApp);
  tracer.on_blocked(9, 0, BlockReason::kCwndLimited);
  // max_sim_time cuts the run: the flow never completes.
  EXPECT_TRUE(tracer.finalize(10'000).empty());
  EXPECT_EQ(tracer.incomplete_flows(), 1u);
}

TEST(FlowTrace, SamplingIsAPureHashOfFlowAndSeed) {
  const obs::FlowTracer all{{.seed = 42, .sample_every = 1}};
  const obs::FlowTracer some{{.seed = 42, .sample_every = 4}};
  const obs::FlowTracer same{{.seed = 42, .sample_every = 4}};
  const obs::FlowTracer other_seed{{.seed = 43, .sample_every = 4}};
  int sampled = 0;
  bool seed_matters = false;
  for (std::uint64_t flow = 1; flow <= 4096; ++flow) {
    EXPECT_TRUE(all.sampled(flow));
    EXPECT_EQ(some.sampled(flow), same.sampled(flow));
    if (some.sampled(flow)) ++sampled;
    seed_matters |= some.sampled(flow) != other_seed.sampled(flow);
  }
  // 1-in-4 hash sampling over 4096 flows: comfortably between the extremes.
  EXPECT_GT(sampled, 4096 / 8);
  EXPECT_LT(sampled, 4096 / 2);
  EXPECT_TRUE(seed_matters);
}

TEST(FlowTrace, TailAttributionUsesNearestRank) {
  std::vector<obs::FlowBreakdown> flows;
  for (int i = 1; i <= 100; ++i) {
    obs::FlowBreakdown b;
    b.flow = static_cast<std::uint64_t>(i);
    b.fct_ns = i;
    b.other_ns = i;
    flows.push_back(b);
  }
  const auto rows = obs::tail_attribution(std::move(flows));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_STREQ(rows[0].pctl, "p50");
  EXPECT_EQ(rows[0].flow.fct_ns, 50);
  EXPECT_STREQ(rows[1].pctl, "p99");
  EXPECT_EQ(rows[1].flow.fct_ns, 99);
  EXPECT_STREQ(rows[2].pctl, "p999");
  EXPECT_EQ(rows[2].flow.fct_ns, 100);
  for (const auto& r : rows) EXPECT_EQ(r.flows, 100);
}

TEST(FlowTrace, CsvFormatIsStable) {
  obs::FlowBreakdown b;
  b.flow = 5;
  b.fct_ns = 100;
  b.q_tor_ns = 60;
  b.cwnd_limited_ns = 40;
  std::string csv = obs::fct_breakdown_csv_header();
  obs::append_fct_breakdown_csv(csv, "burst", 64, {{"p99", 12, b}});
  EXPECT_EQ(csv,
            "mode,degree,pctl,flows,fct_ns,serialization_ns,propagation_ns,"
            "q_host_ns,q_tor_ns,q_agg_ns,q_spine_ns,pfc_pause_ns,cwnd_limited_ns,"
            "rto_wait_ns,fast_recovery_ns,nack_recovery_ns,other_ns\n"
            "burst,64,p99,12,100,0,0,0,60,0,0,0,40,0,0,0,0\n");
}

TEST(FlowTrace, IntStackPushReportsOverflowInsteadOfDroppingSilently) {
  net::IntStack stack;
  for (int i = 0; i < net::kMaxIntHops; ++i) {
    EXPECT_TRUE(stack.push(net::IntHopRecord{.qlen_bytes = i}));
  }
  EXPECT_EQ(stack.num_hops, net::kMaxIntHops);
  // The seventh hop of a six-deep stack: refused, caller counts it.
  EXPECT_FALSE(stack.push(net::IntHopRecord{}));
  EXPECT_EQ(stack.num_hops, net::kMaxIntHops);
  // The deepest recorded hops are intact, not overwritten.
  EXPECT_EQ(stack.hops[net::kMaxIntHops - 1].qlen_bytes, net::kMaxIntHops - 1);
}

// --- Experiment-scale determinism + conservation ---------------------

core::CollateralConfig traced_grid() {
  core::CollateralConfig cfg;
  // The three TCP-transported modes: each exercises a distinct stall class
  // (droptail: cwnd/ECN; pfc: pause; trim: NACK recovery). Credit's incast
  // runs on the rdt transport, which has no sender timeline to trace.
  cfg.modes = {core::QueueMode::kDropTail, core::QueueMode::kPfc, core::QueueMode::kTrim};
  cfg.degrees = {8};
  cfg.num_bursts = 2;
  cfg.burst_duration = sim::Time::milliseconds(3);
  cfg.inter_burst_gap = sim::Time::milliseconds(2);
  cfg.trim_queue_capacity_packets = 100;
  cfg.max_sim_time = sim::Time::seconds(5);
  cfg.audit_mode = sim::AuditMode::kStrict;
  cfg.flow_trace = true;
  cfg.seed = 11;
  return cfg;
}

TEST(FlowTraceSweepDeterminism, FctCsvIsByteIdenticalAcrossJobCounts) {
#if !INCAST_OBS_ENABLED
  GTEST_SKIP() << "flow tracer compiled out (-DINCAST_OBS=OFF)";
#endif
  core::CollateralConfig cfg = traced_grid();
  cfg.jobs = 1;
  const core::CollateralReport sequential = core::run_collateral_experiment(cfg);
  const std::string baseline = core::collateral_fct_csv(sequential);
  ASSERT_EQ(sequential.points.size(), 3u);
  // A vacuously empty artifact would make the identity check meaningless.
  EXPECT_GT(baseline.size(), obs::fct_breakdown_csv_header().size());
  for (const auto& p : sequential.points) {
    EXPECT_GT(p.traced_flows, 0u) << core::to_string(p.mode);
  }

  for (const int jobs : {4, 16}) {
    cfg.jobs = jobs;
    const std::string csv =
        core::collateral_fct_csv(core::run_collateral_experiment(cfg));
    EXPECT_EQ(baseline, csv) << "jobs=" << jobs;
  }
}

TEST(FlowTraceSweepDeterminism, EveryBreakdownConservesUnderTheStrictAuditor) {
#if !INCAST_OBS_ENABLED
  GTEST_SKIP() << "flow tracer compiled out (-DINCAST_OBS=OFF)";
#endif
  // Strict audit aborts the point on the first violated invariant, so a
  // clean report proves every sampled flow's components summed to its FCT
  // across all three queue disciplines.
  const core::CollateralReport report = core::run_collateral_experiment(traced_grid());
  ASSERT_EQ(report.points.size(), 3u);
  EXPECT_TRUE(report.sweep.failures.empty());
  for (const auto& p : report.points) {
    EXPECT_EQ(p.audit_violations, 0u) << core::to_string(p.mode);
    ASSERT_FALSE(p.fct_rows.empty()) << core::to_string(p.mode);
    for (const auto& row : p.fct_rows) {
      EXPECT_EQ(row.flow.component_sum(), row.flow.fct_ns)
          << core::to_string(p.mode) << " " << row.pctl;
    }
  }
}

TEST(FlowTraceSweepDeterminism, IncastBreakdownsConserveAndSamplingSubsets) {
#if !INCAST_OBS_ENABLED
  GTEST_SKIP() << "flow tracer compiled out (-DINCAST_OBS=OFF)";
#endif
  core::IncastExperimentConfig cfg;
  cfg.num_flows = 40;
  cfg.num_bursts = 2;
  cfg.discard_bursts = 0;
  cfg.burst_duration = sim::Time::milliseconds(2);
  cfg.inter_burst_gap = sim::Time::milliseconds(1);
  cfg.audit_mode = sim::AuditMode::kStrict;
  cfg.flow_trace = true;
  cfg.seed = 7;

  const auto all = core::run_incast_experiment(cfg);
  EXPECT_EQ(all.audit_violations, 0u);
  ASSERT_EQ(all.flow_breakdowns.size(), 40u);
  for (const auto& f : all.flow_breakdowns) {
    EXPECT_EQ(f.component_sum(), f.fct_ns) << "flow " << f.flow;
    EXPECT_GT(f.fct_ns, 0) << "flow " << f.flow;
  }

  // 1-in-4 sampling: a proper, deterministic subset of the full run's ids.
  cfg.flow_trace_sample_every = 4;
  const auto sampled = core::run_incast_experiment(cfg);
  const auto resampled = core::run_incast_experiment(cfg);
  ASSERT_EQ(sampled.flow_breakdowns.size(), resampled.flow_breakdowns.size());
  EXPECT_GT(sampled.flow_breakdowns.size(), 0u);
  EXPECT_LT(sampled.flow_breakdowns.size(), all.flow_breakdowns.size());
  for (std::size_t i = 0; i < sampled.flow_breakdowns.size(); ++i) {
    EXPECT_EQ(sampled.flow_breakdowns[i].flow, resampled.flow_breakdowns[i].flow);
  }
}

}  // namespace
}  // namespace incast
