// The scaling experiment's two contracts.
//
// ScalingFlatRouting (unit): the flat next-hop/ECMP tables must reproduce
// the documented seeded symmetric flow hash exactly. The test recomputes
// the published contract — key = mix64(mix64(seed ^ sorted_pair) ^ flow),
// member = key % group_size, group in spine order — from scratch and checks
// Switch::route_port against it for every cross-rack (src, dst, flow)
// triple on the PR 2 fat-tree, so a refactor of the routing storage can
// never silently move a flow to a different path.
//
// ScalingSweepDeterminism (experiment): the incast-degree ladder runs every
// point as an independent simulation on a SweepRunner and the CSV artifact
// must be byte-identical at any --jobs — pinned here both by cross-jobs
// comparison and by a committed FNV-1a fingerprint, so a platform- or
// scheduling-dependent divergence fails even when it is self-consistent
// within the run. The suite name contains "Sweep" so the TSan CI leg
// (ctest -R 'Sweep') races the ladder across a real worker pool.
//
// ScalingMemoryBudget (experiment): the CI ladder's deterministic
// bytes-per-flow figure may not grow more than 15% over its committed
// baseline at any rung.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ios>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scaling_experiment.h"
#include "fabric/fat_tree.h"
#include "obs/hub.h"
#include "sim/simulator.h"

namespace incast {
namespace {

// Independent recomputation of the ECMP hash contract (net/switch.cc's
// mix64 — the SplitMix64 finalizer). Deliberately not shared with the
// implementation: the test must break if the shipped hash drifts.
constexpr std::uint64_t golden_mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t golden_flow_key(std::uint64_t seed, net::NodeId src,
                                        net::NodeId dst, net::FlowId flow) noexcept {
  const net::NodeId lo = src < dst ? src : dst;
  const net::NodeId hi = src < dst ? dst : src;
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(hi) << 32) | static_cast<std::uint64_t>(lo);
  return golden_mix64(golden_mix64(seed ^ pair) ^ flow);
}

// FNV-1a, the repo's standard artifact fingerprint (tests/test_event_kernel.cc).
std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The PR 2 smoke fabric: 2 pods x 2 leaves x 8 hosts, two-tier over 2
// spines — the topology the fabric experiment suite has always pinned.
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

TEST(ScalingFlatRouting, ReproducesSeededEcmpHashForEveryCrossRackTriple) {
  sim::Simulator sim;
  fabric::FatTree tree{sim, pr2_fabric()};

  for (int l = 0; l < tree.num_leaves(); ++l) {
    net::Switch& leaf = tree.leaf(l);
    const auto& uplinks = tree.leaf_uplink_port_indices(l);
    ASSERT_EQ(uplinks.size(), 2u);
    for (int src_host = 0; src_host < tree.num_hosts(); ++src_host) {
      if (tree.leaf_of_host(src_host) != l) continue;
      const net::NodeId src = tree.host(src_host).id();
      for (int dst_host = 0; dst_host < tree.num_hosts(); ++dst_host) {
        if (dst_host == src_host) continue;
        const net::NodeId dst = tree.host(dst_host).id();
        for (const net::FlowId flow : {net::FlowId{1}, net::FlowId{7}, net::FlowId{123}}) {
          const auto port = leaf.route_port(src, dst, flow);
          ASSERT_TRUE(port.has_value()) << "leaf " << l << " cannot route host "
                                        << src_host << " -> " << dst_host;
          if (tree.leaf_of_host(dst_host) == l) {
            // Local destination: a single-port route straight down. The
            // downlink must not depend on the flow hash (or source) at all.
            EXPECT_EQ(*port, *leaf.route_port(src, dst, flow ^ 0x5555));
            EXPECT_EQ(*port, *leaf.route_port(src ^ 1, dst, flow));
          } else {
            const std::uint64_t key =
                golden_flow_key(leaf.ecmp_seed(), src, dst, flow);
            const std::size_t member = key % uplinks.size();
            EXPECT_EQ(*port, uplinks[member])
                << "leaf " << l << ", " << src_host << " -> " << dst_host
                << ", flow " << flow;
            // Symmetry: the ACK direction climbs the remote leaf toward the
            // same spine — the same member index of its uplink group.
            const int rl = tree.leaf_of_host(dst_host);
            EXPECT_EQ(tree.leaf(rl).route_port(dst, src, flow),
                      tree.leaf_uplink_port_indices(rl)[member]);
          }
        }
      }
    }
  }
}

// The small-ladder config every determinism test below shares: PR 2 fabric,
// three degrees, short flows. Any change here moves the committed golden.
core::ScalingConfig small_ladder() {
  core::ScalingConfig cfg;
  cfg.degrees = {1, 2, 8};
  cfg.fabric = pr2_fabric();
  cfg.bytes_per_flow = 27'000;
  cfg.seed = 11;
  return cfg;
}

// Committed fingerprint of scaling_csv(small_ladder()) — regenerate with a
// jobs=1 run and update deliberately when the experiment's math or CSV
// schema changes; an unexplained move is a determinism regression.
// Last move: switches store each distinct route member list once (4-byte
// per-destination slices of a shared group table) and a TCP receiver keeps
// its latest INT stack in the packet pool's side table instead of inline.
// Only the memory columns changed — flow_state_bytes, routing_bytes and
// bytes_per_flow; kScalingBehaviourFnv below pins the rest.
constexpr std::uint64_t kScalingGoldenFnv = 0x7c875b3c3b09b0d5ULL;

TEST(ScalingSweepDeterminism, CsvIsByteIdenticalAcrossJobCountsAndMatchesGolden) {
  core::ScalingConfig cfg = small_ladder();
  cfg.jobs = 1;
  const core::ScalingReport sequential = core::run_scaling_experiment(cfg);
  const std::string baseline = core::scaling_csv(sequential);
  ASSERT_EQ(sequential.points.size(), 3u);
  EXPECT_EQ(fnv1a(baseline), kScalingGoldenFnv)
      << "scaling CSV fingerprint moved: 0x" << std::hex << fnv1a(baseline)
      << "; csv:\n" << baseline;

  for (const int jobs : {4, 16}) {
    cfg.jobs = jobs;
    const std::string csv = core::scaling_csv(core::run_scaling_experiment(cfg));
    EXPECT_EQ(baseline, csv) << "jobs=" << jobs;
  }
}

// `csv` without the named columns. scaling_csv fields never contain a
// comma, so a plain split is exact.
std::string csv_without(const std::string& csv, const std::set<std::string>& drop) {
  std::istringstream in{csv};
  std::vector<bool> keep;
  std::string out;
  for (std::string line; std::getline(in, line);) {
    std::vector<std::string> fields;
    std::istringstream row{line};
    for (std::string f; std::getline(row, f, ',');) fields.push_back(f);
    if (keep.empty()) {
      for (const std::string& name : fields) keep.push_back(drop.count(name) == 0);
    }
    std::string kept;
    for (std::size_t i = 0; i < fields.size() && i < keep.size(); ++i) {
      if (!keep[i]) continue;
      if (!kept.empty()) kept += ',';
      kept += fields[i];
    }
    out += kept + '\n';
  }
  return out;
}

// Committed fingerprint of the same CSV without its memory columns:
// everything the ladder simulates, nothing about how the simulator stores
// it. A layout change moves kScalingGoldenFnv; only a change in behaviour
// may move this one.
constexpr std::uint64_t kScalingBehaviourFnv = 0xec213a1d34ccc322ULL;

TEST(ScalingSweepDeterminism, CsvWithoutMemoryColumnsMatchesBehaviourGolden) {
  const std::string csv = core::scaling_csv(core::run_scaling_experiment(small_ladder()));
  const std::string behaviour =
      csv_without(csv, {"flow_state_bytes", "packet_pool_bytes", "routing_bytes",
                        "event_bytes", "bytes_per_flow"});
  ASSERT_NE(behaviour.find("fct_ms"), std::string::npos);
  ASSERT_EQ(behaviour.find("event_bytes"), std::string::npos);
  EXPECT_EQ(fnv1a(behaviour), kScalingBehaviourFnv)
      << "behaviour fingerprint moved: 0x" << std::hex << fnv1a(behaviour)
      << "; csv:\n" << behaviour;
}

TEST(ScalingSweepDeterminism, EveryPointCompletesAndDecomposesItsMemory) {
  const core::ScalingReport report = core::run_scaling_experiment(small_ladder());
  ASSERT_EQ(report.points.size(), 3u);
  for (const core::ScalingPoint& p : report.points) {
    EXPECT_EQ(p.completed_flows, p.degree);
    EXPECT_EQ(p.audit_violations, 0u) << "degree " << p.degree;
    EXPECT_GT(p.fct_ms, 0.0);
    // optimal_ms is the htsim reference (base RTT + full serialization),
    // not a strict lower bound: a pipelined small-degree incast can finish
    // marginally under it, so only pin it positive here.
    EXPECT_GT(p.optimal_ms, 0.0);
    // The decomposition is the gate's input: every component must be live
    // and the per-flow figure their exact sum.
    EXPECT_GT(p.flow_state_bytes, 0u);
    EXPECT_GT(p.packet_pool_bytes, 0u);
    EXPECT_GT(p.routing_bytes, 0u);
    EXPECT_GT(p.event_bytes, 0u);
    EXPECT_EQ(p.bytes_per_flow,
              (p.flow_state_bytes + p.packet_pool_bytes + p.routing_bytes +
               p.event_bytes) /
                  static_cast<std::uint64_t>(p.degree));
  }
  EXPECT_TRUE(report.sweep.failures.empty());
  // Amortization: per-flow footprint at degree 8 must be well under the
  // degree-1 figure — the whole point of the arena/SoA layouts.
  EXPECT_LT(report.points.back().bytes_per_flow, report.points.front().bytes_per_flow);
}

// The event kernel keeps at most one heap entry per timer, so a point's
// pending-event peak stays within the reserve_events hint its engine gives
// the simulator (degree * 8 + 4096). A kernel that leaves a dead entry in
// the heap on every RTO re-arm peaks at 11,845 entries here.
TEST(ScalingEventKernel, Degree64PeakPendingStaysWithinTheReserveHint) {
#if !INCAST_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (-DINCAST_OBS=OFF)";
#endif
  constexpr int kDegree = 64;
  obs::Hub hub;
  core::ScalingConfig cfg;
  cfg.degrees = {kDegree};
  cfg.hub = &hub;
  const core::ScalingReport report = core::run_scaling_experiment(cfg);
  ASSERT_EQ(report.points.size(), 1u);
  ASSERT_EQ(report.points.front().completed_flows, kDegree);
  ASSERT_TRUE(hub.has_final_metrics());
  std::int64_t peak = -1;
  for (const auto& e : hub.final_metrics().entries) {
    if (e.name == "sim.events.peak_pending") peak = e.counter;
  }
  ASSERT_GT(peak, 0);
  EXPECT_LE(peak, kDegree * 8 + 4096);
}

// The memory budget on the default 432-host fabric at the CI degrees.
// bytes_per_flow is sizeof-based, so it is identical on every machine and
// needs no per-runner baseline. Raise a baseline only deliberately, when a
// layout change is meant to cost memory.
TEST(ScalingMemoryBudget, CiLadderStaysWithinBytesPerFlowBudget) {
  struct Rung {
    int degree;
    double baseline_bytes_per_flow;
  };
  constexpr Rung kRungs[] = {{2000, 4178}, {512, 5485}, {64, 13140}};
  constexpr double kMaxGrowth = 0.15;

  core::ScalingConfig cfg;
  cfg.degrees.clear();
  for (const Rung& rung : kRungs) cfg.degrees.push_back(rung.degree);
  const core::ScalingReport report = core::run_scaling_experiment(cfg);
  ASSERT_EQ(report.points.size(), std::size(kRungs));
  for (std::size_t i = 0; i < std::size(kRungs); ++i) {
    const core::ScalingPoint& p = report.points[i];
    EXPECT_EQ(p.degree, kRungs[i].degree);
    EXPECT_LE(static_cast<double>(p.bytes_per_flow),
              (1.0 + kMaxGrowth) * kRungs[i].baseline_bytes_per_flow)
        << "degree " << p.degree << ": " << p.bytes_per_flow
        << " bytes/flow is more than 15% over the baseline of "
        << kRungs[i].baseline_bytes_per_flow;
  }
}

}  // namespace
}  // namespace incast
