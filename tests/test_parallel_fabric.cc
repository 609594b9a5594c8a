// The conservative parallel engine's contracts (sim/parallel_simulator.h,
// net/domain_bridge.h, fabric rack decomposition).
//
// ParallelFabric (unit): the rack-domain assignment's shape — round-robin
// leaves and core switches, hosts following their leaf, lookahead derived
// from the config — plus the failure-injection paths: an inflated lookahead
// must surface as audit[lookahead] (strict aborts, relaxed counts), and the
// barrier-granular event budget must abort with BudgetExceeded.
//
// ParallelFabricDeterminism (experiment): the headline contract. One fabric
// run domain-decomposed across N event queues must produce a byte-identical
// CSV at any N — including N=1, the sequential reference — because windows
// are computed from global state and every event carries a decomposition-
// invariant (time, key) rank. The incast starts all senders at t=0, so the
// ladder is saturated with same-timestamp cross-domain arrivals: byte
// identity here is precisely the tie-break determinism guarantee. The suite
// name matches the TSan CI leg (ctest -R 'Sweep|ParallelFabric') so the
// barrier/mailbox protocol is raced under a real thread sanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/scaling_experiment.h"
#include "fabric/fat_tree.h"
#include "sim/auditor.h"
#include "sim/simulator.h"

namespace incast {
namespace {

// The PR 2 smoke fabric (tests/test_scaling.cc): 2 pods x 2 leaves x 8
// hosts, two-tier over 2 spines. Four racks + two spines gives real
// cross-domain traffic at every domain count from 2 up.
fabric::FatTreeConfig pr2_fabric() {
  fabric::FatTreeConfig cfg;
  cfg.num_pods = 2;
  cfg.leaves_per_pod = 2;
  cfg.hosts_per_leaf = 8;
  cfg.aggs_per_pod = 0;
  cfg.num_spines = 2;
  cfg.ecmp_seed = 42;
  return cfg;
}

core::ScalingConfig small_ladder(int domains) {
  core::ScalingConfig cfg;
  cfg.degrees = {1, 2, 8};
  cfg.fabric = pr2_fabric();
  cfg.bytes_per_flow = 27'000;
  cfg.seed = 11;
  cfg.domains = domains;
  return cfg;
}

TEST(ParallelFabric, RackAssignmentRoundRobinsLeavesAndCore) {
  const fabric::FatTreeConfig cfg = pr2_fabric();  // 4 leaves, 2 spines
  const fabric::DomainAssignment a = fabric::assign_rack_domains(cfg, 3);
  EXPECT_EQ(a.domains, 3);
  EXPECT_EQ(a.leaf_domain, (std::vector<int>{0, 1, 2, 0}));
  EXPECT_TRUE(a.agg_domain.empty());
  EXPECT_EQ(a.spine_domain, (std::vector<int>{0, 1}));
  EXPECT_EQ(a.lookahead, cfg.link_delay);

  // Surplus domains idle rather than fail: 8 domains over 4 racks.
  EXPECT_EQ(fabric::assign_rack_domains(cfg, 8).leaf_domain,
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_THROW((void)fabric::assign_rack_domains(cfg, 0), std::invalid_argument);
}

TEST(ParallelFabric, DomainBuildTagsEveryHostWithItsLeafDomain) {
  sim::Simulator s0;
  sim::Simulator s1;
  const fabric::FatTreeConfig cfg = pr2_fabric();
  const fabric::DomainAssignment a = fabric::assign_rack_domains(cfg, 2);
  fabric::FatTree tree{{&s0, &s1}, a, cfg};
  for (int h = 0; h < tree.num_hosts(); ++h) {
    EXPECT_EQ(tree.host(h).domain(),
              a.leaf_domain[static_cast<std::size_t>(tree.leaf_of_host(h))])
        << "host " << h;
  }
}

// Inflating the lookahead past the real link delay makes cross-domain
// packets arrive inside completed windows — the exact corruption the
// conservative contract forbids. Strict audit must abort the run with the
// lookahead invariant; relaxed must count it and limp to completion.
TEST(ParallelFabric, InflatedLookaheadAbortsStrictAudit) {
#if !INCAST_AUDIT_ENABLED
  GTEST_SKIP() << "auditor compiled out (-DINCAST_AUDIT=OFF)";
#endif
  core::ScalingConfig cfg = small_ladder(2);
  cfg.audit_mode = sim::AuditMode::kStrict;
  cfg.lookahead_override = sim::Time::microseconds(100);  // real delay: 4.5us
  try {
    (void)core::run_scaling_point(cfg, /*degree=*/8, /*seed=*/11, nullptr);
    FAIL() << "expected AuditFailure";
  } catch (const sim::AuditFailure& e) {
    EXPECT_STREQ(e.invariant(), "lookahead");
  }
}

TEST(ParallelFabric, InflatedLookaheadCountsViolationsRelaxed) {
#if !INCAST_AUDIT_ENABLED
  GTEST_SKIP() << "auditor compiled out (-DINCAST_AUDIT=OFF)";
#endif
  core::ScalingConfig cfg = small_ladder(2);
  cfg.audit_mode = sim::AuditMode::kRelaxed;
  cfg.lookahead_override = sim::Time::microseconds(100);
  const core::ScalingPoint p =
      core::run_scaling_point(cfg, /*degree=*/8, /*seed=*/11, nullptr);
  EXPECT_GT(p.audit_violations, 0u);
  EXPECT_EQ(p.completed_flows, 8);
}

TEST(ParallelFabric, GlobalEventBudgetAbortsAtBarrier) {
  core::ScalingConfig cfg = small_ladder(2);
  cfg.audit.max_events = 500;  // degree 8 needs far more
  EXPECT_THROW(
      (void)core::run_scaling_point(cfg, /*degree=*/8, /*seed=*/11, nullptr),
      sim::BudgetExceeded);
}

TEST(ParallelFabric, DeadlineCutsThePointShortDeterministically) {
  core::ScalingConfig cfg = small_ladder(2);
  cfg.max_sim_time = sim::Time::microseconds(50);
  const core::ScalingPoint p =
      core::run_scaling_point(cfg, /*degree=*/8, /*seed=*/11, nullptr);
  EXPECT_LT(p.completed_flows, 8);
  EXPECT_DOUBLE_EQ(p.fct_ms, cfg.max_sim_time.ms());
}

TEST(ParallelFabricDeterminism, CsvIsByteIdenticalAcrossDomainCounts) {
  const std::string baseline =
      core::scaling_csv(core::run_scaling_experiment(small_ladder(1)));
  for (const int domains : {2, 3, 8}) {
    const std::string csv =
        core::scaling_csv(core::run_scaling_experiment(small_ladder(domains)));
    EXPECT_EQ(baseline, csv) << "domains=" << domains;
  }
}

// HPCC packets carry INT stacks in their domain's side pool. A stack must
// cross the bridge with its packet and land in the destination domain's
// pool, or the cross-rack senders would run blind and the CSV would move
// with the domain count.
TEST(ParallelFabricDeterminism, HpccCsvIsByteIdenticalAcrossDomainCounts) {
  core::ScalingConfig cfg = small_ladder(1);
  cfg.tcp.cc = tcp::CcAlgorithm::kHpcc;
  const core::ScalingReport one = core::run_scaling_experiment(cfg);
  cfg.domains = 4;
  const core::ScalingReport four = core::run_scaling_experiment(cfg);
  EXPECT_EQ(core::scaling_csv(one), core::scaling_csv(four));
  for (const core::ScalingPoint& p : four.points) {
    EXPECT_EQ(p.completed_flows, p.degree);
    EXPECT_EQ(p.int_hop_overflows, 0);
  }
  EXPECT_GT(four.points.back().packets_bridged, 0u);
}

// The same contract at point granularity, with the execution diagnostics
// that back it: the window sequence and per-window event histogram are
// computed from global state, so they must match across domain counts even
// though the per-domain event split differs.
TEST(ParallelFabricDeterminism, WindowsAndEventTotalsAreDecompositionInvariant) {
  const core::ScalingConfig one = small_ladder(1);
  const core::ScalingConfig four = small_ladder(4);
  const core::ScalingPoint p1 = core::run_scaling_point(one, 8, 11, nullptr);
  const core::ScalingPoint p4 = core::run_scaling_point(four, 8, 11, nullptr);

  EXPECT_EQ(p1.fct_ms, p4.fct_ms);
  EXPECT_EQ(p1.events_processed, p4.events_processed);
  EXPECT_EQ(p1.windows, p4.windows);
  EXPECT_EQ(p1.window_hist, p4.window_hist);
  EXPECT_EQ(p1.packet_pool_bytes, p4.packet_pool_bytes);
  EXPECT_EQ(p1.event_bytes, p4.event_bytes);
  EXPECT_EQ(p1.audit_violations, 0u);
  EXPECT_EQ(p4.audit_violations, 0u);

  EXPECT_EQ(p1.parallel_domains, 1u);
  EXPECT_EQ(p4.parallel_domains, 4u);
  EXPECT_EQ(p1.packets_bridged, 0u);  // one domain: nothing crosses
  EXPECT_GT(p4.packets_bridged, 0u);  // four racks: the incast must cross
  EXPECT_EQ(p1.events_per_domain.size(), 1u);
  EXPECT_EQ(p4.events_per_domain.size(), 4u);
  std::uint64_t split_total = 0;
  for (const std::uint64_t e : p4.events_per_domain) split_total += e;
  EXPECT_EQ(split_total, p4.events_processed);
}

// Degrees past the host count stack several flows per host and per lane —
// the stress case for per-lane key assignment (a lane collision would
// reorder same-timestamp events and move the CSV).
TEST(ParallelFabricDeterminism, ManyFlowsPerHostStayByteIdentical) {
  core::ScalingConfig cfg = small_ladder(1);
  cfg.degrees = {64};
  const std::string baseline = core::scaling_csv(core::run_scaling_experiment(cfg));
  cfg.domains = 4;
  EXPECT_EQ(baseline, core::scaling_csv(core::run_scaling_experiment(cfg)));
}

}  // namespace
}  // namespace incast
