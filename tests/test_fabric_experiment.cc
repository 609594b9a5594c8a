// Tests for the fabric incast experiment — most importantly the acceptance
// criterion that a 1-pod / 2-leaf / 1-spine fat-tree reproduces the
// dumbbell's DCTCP mode classification for the same sweep points.
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/error.h"
#include "core/fabric_experiment.h"
#include "core/incast_experiment.h"
#include "core/resilience_experiment.h"
#include "core/task_journal.h"
#include "telemetry/trace_io.h"

namespace incast::core {
namespace {

using namespace incast::sim::literals;

IncastExperimentConfig dumbbell_config(int flows) {
  IncastExperimentConfig cfg;
  cfg.num_flows = flows;
  cfg.burst_duration = 15_ms;
  cfg.num_bursts = 3;  // abbreviated for test speed
  cfg.discard_bursts = 1;
  cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.tcp.rtt.min_rto = 200_ms;
  cfg.seed = 7;
  return cfg;
}

// The automated equivalence sweep: safe (100 flows), degenerate (500), and
// collapse (1500) on the dumbbell must classify identically on the
// degenerate fat-tree, which differs only by one extra switch hop.
class DumbbellEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DumbbellEquivalence, FabricDegenerateCaseReproducesDumbbellMode) {
  const IncastExperimentConfig base = dumbbell_config(GetParam());
  const auto dumbbell = run_incast_experiment(base);

  const FabricIncastExperimentConfig fabric_cfg = dumbbell_equivalent_config(base);
  ASSERT_EQ(fabric_cfg.fabric.num_pods, 1);
  ASSERT_EQ(fabric_cfg.fabric.num_spines, 1);
  const auto fabric = run_fabric_incast_experiment(fabric_cfg);

  EXPECT_EQ(classify_mode(dumbbell), fabric.mode)
      << "dumbbell: timeouts=" << dumbbell.timeouts
      << " marked=" << dumbbell.marked_fraction()
      << " | fabric: timeouts=" << fabric.timeouts
      << " marked=" << fabric.marked_fraction();
  // The single-spine fabric has exactly one path: ECMP must never engage.
  for (const auto& spread : fabric.leaf_ecmp) {
    for (const std::int64_t n : spread.flows_by_uplink) EXPECT_EQ(n, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(ModeSweep, DumbbellEquivalence,
                         ::testing::Values(100, 500, 1500));

TEST(FabricExperiment, CrossRackRunsEndToEnd) {
  FabricIncastExperimentConfig cfg;
  cfg.num_flows = 24;
  cfg.fabric.num_pods = 2;
  cfg.fabric.leaves_per_pod = 2;
  cfg.fabric.hosts_per_leaf = 8;
  cfg.fabric.num_spines = 2;
  cfg.num_bursts = 2;
  cfg.discard_bursts = 0;
  cfg.burst_duration = 3_ms;

  const auto r = run_fabric_incast_experiment(cfg);

  ASSERT_EQ(r.bursts.size(), 2u);
  EXPECT_EQ(r.sender_hosts.size(), 24u);
  // Receiver sits on the last leaf; no sender shares it.
  for (const int h : r.sender_hosts) EXPECT_NE(h / 8, 3) << "sender on receiver leaf";
  EXPECT_GT(r.avg_bct_ms, 0.0);
  EXPECT_GT(r.queue_enqueues, 0);

  // All three tiers produced traces and the host trace carries the burst.
  bool saw_host = false, saw_leaf = false, saw_spine = false;
  for (const auto& v : r.vantages) {
    if (v.tier == "host") {
      saw_host = true;
      EXPECT_GT(v.peak_utilization(), 0.5);
    }
    if (v.tier == "leaf") saw_leaf = true;
    if (v.tier == "spine") saw_spine = true;
  }
  EXPECT_TRUE(saw_host);
  EXPECT_TRUE(saw_leaf);
  EXPECT_TRUE(saw_spine);

  // The leaf-tier ECMP spread accounts for traffic: every cross-rack flow
  // climbs one ECMP group with its data and another with its ACKs.
  std::int64_t spread_total = 0;
  for (const auto& s : r.leaf_ecmp) {
    for (const std::int64_t n : s.flows_by_uplink) spread_total += n;
  }
  EXPECT_EQ(spread_total, 2 * static_cast<std::int64_t>(r.sender_hosts.size()));
}

TEST(FabricExperiment, ThreeTierRunsEndToEnd) {
  FabricIncastExperimentConfig cfg;
  cfg.num_flows = 12;
  cfg.fabric.num_pods = 2;
  cfg.fabric.leaves_per_pod = 2;
  cfg.fabric.hosts_per_leaf = 4;
  cfg.fabric.aggs_per_pod = 2;
  cfg.fabric.num_spines = 2;
  cfg.num_bursts = 2;
  cfg.discard_bursts = 0;
  cfg.burst_duration = 3_ms;

  const auto r = run_fabric_incast_experiment(cfg);
  ASSERT_EQ(r.bursts.size(), 2u);
  EXPECT_GT(r.avg_bct_ms, 0.0);
  EXPECT_EQ(r.timeouts, 0);
}

TEST(FabricExperiment, PlacementOverflowThrows) {
  FabricIncastExperimentConfig cfg;
  cfg.fabric.num_pods = 1;
  cfg.fabric.leaves_per_pod = 2;
  cfg.fabric.hosts_per_leaf = 4;
  cfg.fabric.num_spines = 1;
  // A placement the fabric cannot seat is a config error (exit 2).
  const auto expect_config_error = [&cfg] {
    try {
      (void)run_fabric_incast_experiment(cfg);
      ADD_FAILURE() << "no error";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kConfig) << e.what();
    }
  };
  // Cross-rack capacity is one leaf x 4 hosts = 4 senders.
  cfg.num_flows = 5;
  expect_config_error();

  cfg.placement = FabricIncastExperimentConfig::Placement::kSingleRack;
  expect_config_error();
  cfg.num_flows = 4;
  EXPECT_NO_THROW((void)run_fabric_incast_experiment(cfg));
}

TEST(FabricExperiment, NamedLinkFaultInjectsDrops) {
  FabricIncastExperimentConfig cfg;
  cfg.num_flows = 8;
  cfg.fabric.num_pods = 1;
  cfg.fabric.leaves_per_pod = 2;
  cfg.fabric.hosts_per_leaf = 8;
  cfg.fabric.num_spines = 2;
  cfg.num_bursts = 2;
  cfg.discard_bursts = 0;
  cfg.burst_duration = 3_ms;

  const auto clean = run_fabric_incast_experiment(cfg);
  EXPECT_EQ(clean.injected_drops, 0);

  // Lossy uplink, addressed by its LinkDirectory name — the uniform fault
  // pathway works on fabric links exactly as on the dumbbell's core link.
  NamedLinkFault nf;
  nf.link = "p0.l0->s0";
  nf.config.drop_rate = 0.05;
  cfg.link_faults.push_back(nf);
  const auto lossy = run_fabric_incast_experiment(cfg);
  EXPECT_GT(lossy.injected_drops, 0);
  EXPECT_GT(lossy.retransmitted_packets, clean.retransmitted_packets);
}

// Whether result_bytes includes the event kernel's footprint
// (peak_events_pending, slab_high_water). Without it the bytes are the
// run's behaviour alone: what it simulated, not how the kernel stored it.
enum class Footprint { kWith, kWithout };

// Every field of a cross-rack result (doubles at full round-trip
// precision), vantage bins in their CSV form.
std::string result_bytes(const FabricIncastExperimentResult& r,
                         Footprint footprint = Footprint::kWith) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const auto& b : r.bursts) {
    out << b.index << ',' << b.started.ns() << ',' << b.completed.ns() << ';';
  }
  out << '\n';
  for (const int h : r.sender_hosts) out << h << ',';
  out << '\n' << r.receiver_host << ',' << to_string(r.mode) << '\n';
  for (const auto& s : r.queue_series) out << s.at.ns() << ':' << s.packets << ',';
  out << '\n'
      << r.avg_bct_ms << ',' << r.max_bct_ms << ',' << r.avg_queue_packets << ','
      << r.peak_queue_packets << '\n'
      << r.queue_drops << ',' << r.queue_ecn_marks << ',' << r.queue_enqueues << ','
      << r.timeouts << ',' << r.fast_retransmits << ',' << r.retransmitted_packets << ','
      << r.data_packets_sent << ',' << r.injected_drops << '\n';
  for (const auto& v : r.vantages) {
    out << v.tier << ',' << v.name << ',' << v.line_rate.bps() << '\n';
    telemetry::write_bins_csv(v.bins, out);
    for (const auto w : v.queue_watermarks) out << w << ',';
    out << '\n';
  }
  for (const auto& s : r.leaf_ecmp) {
    out << s.global_leaf << ':';
    for (const auto n : s.flows_by_uplink) out << n << ',';
    out << '\n';
  }
  out << r.events_processed;
  if (footprint == Footprint::kWith) {
    out << ',' << r.peak_events_pending << ',' << r.slab_high_water;
  }
  for (const auto n : r.events_by_category) out << ',' << n;
  out << '\n' << r.audit_violations << ',' << r.int_hop_overflows << '\n';
  return out.str();
}

// Committed fingerprint of a full cross-rack result with a lossy uplink. A
// change that moves it altered the experiment's observable behavior.
// Last move: the ECMP path-change count was deleted with the switches'
// flow tables, and timers keep one heap entry each (peak_events_pending
// and slab_high_water 7766 -> 123); kFabricBehaviourFnv did not move.
constexpr std::uint64_t kFabricResultGoldenFnv = 0x90088052a7a09885ULL;
// The same result without the kernel footprint. A change to how the event
// kernel or the switches store state may move the golden above, never
// this one.
constexpr std::uint64_t kFabricBehaviourFnv = 0xb4766579e433e9c5ULL;

TEST(FabricExperiment, CrossRackResultMatchesCommittedGolden) {
  FabricIncastExperimentConfig cfg;
  cfg.num_flows = 24;
  cfg.fabric.num_pods = 2;
  cfg.fabric.leaves_per_pod = 2;
  cfg.fabric.hosts_per_leaf = 8;
  cfg.fabric.num_spines = 2;
  cfg.num_bursts = 3;
  cfg.discard_bursts = 1;
  cfg.burst_duration = 3_ms;
  cfg.seed = 5;
  cfg.link_faults.push_back({"p0.l0->s0", {.drop_rate = 1e-2}});

  const auto r = run_fabric_incast_experiment(cfg);
  ASSERT_EQ(r.bursts.size(), 3u);
  ASSERT_GT(r.injected_drops, 0);
  ASSERT_FALSE(r.vantages.empty());
  const std::string bytes = result_bytes(r);
  EXPECT_EQ(fnv1a(bytes), kFabricResultGoldenFnv)
      << std::hex << fnv1a(bytes) << std::dec << '\n' << bytes.substr(0, 2000);
  const std::string behaviour = result_bytes(r, Footprint::kWithout);
  EXPECT_EQ(fnv1a(behaviour), kFabricBehaviourFnv)
      << std::hex << fnv1a(behaviour) << std::dec << '\n' << behaviour.substr(0, 2000);
}

}  // namespace
}  // namespace incast::core
