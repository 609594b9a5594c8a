// ECMP determinism tests: a seed fully determines every flow's path, the
// assignment is stable within a run, data and ACKs traverse consistent
// paths, and distinct seeds produce distinct collision patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/fabric_experiment.h"
#include "fabric/fat_tree.h"
#include "net/switch.h"
#include "sim/simulator.h"
#include "telemetry/trace_io.h"

namespace incast {
namespace {

using namespace incast::sim::literals;

fabric::FatTreeConfig small_fabric(std::uint64_t ecmp_seed) {
  fabric::FatTreeConfig cfg;
  cfg.num_pods = 2;
  cfg.leaves_per_pod = 2;
  cfg.hosts_per_leaf = 4;
  cfg.num_spines = 4;
  cfg.ecmp_seed = ecmp_seed;
  return cfg;
}

// Path fingerprint: the uplink choice of every (src, dst, flow) triple at
// the source leaf, sampled via the pure route_port query.
std::vector<std::size_t> uplink_choices(fabric::FatTree& ft, int flows_per_pair) {
  std::vector<std::size_t> choices;
  for (int src = 0; src < ft.num_hosts(); ++src) {
    for (int dst = 0; dst < ft.num_hosts(); ++dst) {
      if (ft.leaf_of_host(src) == ft.leaf_of_host(dst)) continue;
      for (int f = 1; f <= flows_per_pair; ++f) {
        const auto port = ft.leaf(ft.leaf_of_host(src))
                              .route_port(ft.host(src).id(), ft.host(dst).id(), f);
        choices.push_back(port.value());
      }
    }
  }
  return choices;
}

TEST(Ecmp, SameSeedSamePaths) {
  sim::Simulator sim_a, sim_b;
  fabric::FatTree a{sim_a, small_fabric(42)};
  fabric::FatTree b{sim_b, small_fabric(42)};
  EXPECT_EQ(uplink_choices(a, 3), uplink_choices(b, 3));
}

TEST(Ecmp, DifferentSeedsDifferentCollisionPatterns) {
  sim::Simulator sim_a, sim_b;
  fabric::FatTree a{sim_a, small_fabric(1)};
  fabric::FatTree b{sim_b, small_fabric(2)};
  // With 4-way groups and hundreds of sampled triples, two seeds agreeing
  // everywhere would mean the seed does not reach the hash.
  EXPECT_NE(uplink_choices(a, 3), uplink_choices(b, 3));
}

// In a two-tier fabric the forward choice at the source leaf and the
// reverse choice at the destination leaf must land on the same spine (group
// member order is spine order at every leaf, and the hash is symmetric in
// src/dst) — so a flow's ACKs traverse the same spine as its data.
TEST(Ecmp, PathSymmetryDataAndAcksShareTheSpine) {
  sim::Simulator sim;
  fabric::FatTreeConfig cfg;
  cfg.num_pods = 1;
  cfg.leaves_per_pod = 2;
  cfg.hosts_per_leaf = 4;
  cfg.num_spines = 4;
  fabric::FatTree ft{sim, cfg};
  for (int src = 0; src < ft.num_hosts(); ++src) {
    for (int dst = 0; dst < ft.num_hosts(); ++dst) {
      const int src_leaf = ft.leaf_of_host(src);
      const int dst_leaf = ft.leaf_of_host(dst);
      if (src_leaf == dst_leaf) continue;
      for (int f = 1; f <= 5; ++f) {
        const auto fwd = ft.leaf(src_leaf)
                             .route_port(ft.host(src).id(), ft.host(dst).id(), f)
                             .value();
        const auto rev = ft.leaf(dst_leaf)
                             .route_port(ft.host(dst).id(), ft.host(src).id(), f)
                             .value();
        // Map the chosen port to its position in the uplink group = spine
        // index.
        const auto& fwd_uplinks = ft.leaf_uplink_port_indices(src_leaf);
        const auto& rev_uplinks = ft.leaf_uplink_port_indices(dst_leaf);
        const auto fwd_spine =
            std::find(fwd_uplinks.begin(), fwd_uplinks.end(), fwd) - fwd_uplinks.begin();
        const auto rev_spine =
            std::find(rev_uplinks.begin(), rev_uplinks.end(), rev) - rev_uplinks.begin();
        EXPECT_EQ(fwd_spine, rev_spine)
            << "src=" << src << " dst=" << dst << " flow=" << f;
      }
    }
  }
}

TEST(Ecmp, RoutePortMatchesActualForwarding) {
  // The route_port query must predict what receive() does: send one packet
  // per flow and compare the packets each leaf port enqueued against the
  // prediction.
  sim::Simulator sim;
  fabric::FatTree ft{sim, small_fabric(7)};

  class Sink final : public net::PacketHandler {
   public:
    void handle_packet(const net::Packet&) override {}
  };
  Sink sink;
  const int dst = ft.num_hosts() - 1;
  ft.host(dst).register_flow(100, &sink);
  std::vector<std::int64_t> predicted(ft.leaf(0).num_ports(), 0);
  for (int f = 1; f <= 32; ++f) {
    // All from host 0 (leaf 0) to the last host; distinct flow ids.
    ft.host(0).register_flow(f, &sink);
    const auto port = ft.leaf(0).route_port(ft.host(0).id(), ft.host(dst).id(), f);
    ++predicted[port.value()];
    net::Packet p = net::make_data_packet(ft.host(0).id(), ft.host(dst).id(), f, 0, 100);
    ft.host(dst).register_flow(f, &sink);
    ft.host(0).send(ft.host(0).packets().acquire(p));
  }
  sim.run();
  std::vector<std::int64_t> forwarded;
  for (std::size_t i = 0; i < ft.leaf(0).num_ports(); ++i) {
    forwarded.push_back(ft.leaf(0).port(i).queue().stats().enqueued_packets);
  }
  EXPECT_EQ(forwarded, predicted);
}

TEST(Ecmp, ExperimentIsDeterministicIncludingTelemetryCsv) {
  core::FabricIncastExperimentConfig cfg;
  cfg.num_flows = 12;  // cross-rack capacity of the small fabric
  cfg.fabric = small_fabric(5);
  cfg.num_bursts = 2;
  cfg.discard_bursts = 0;
  cfg.burst_duration = 3_ms;
  cfg.seed = 11;

  const auto a = core::run_fabric_incast_experiment(cfg);
  const auto b = core::run_fabric_incast_experiment(cfg);

  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.avg_bct_ms, b.avg_bct_ms);
  ASSERT_EQ(a.leaf_ecmp.size(), b.leaf_ecmp.size());
  for (std::size_t i = 0; i < a.leaf_ecmp.size(); ++i) {
    EXPECT_EQ(a.leaf_ecmp[i].flows_by_uplink, b.leaf_ecmp[i].flows_by_uplink);
  }

  // Byte-identical Millisampler CSVs at every vantage point.
  ASSERT_EQ(a.vantages.size(), b.vantages.size());
  for (std::size_t i = 0; i < a.vantages.size(); ++i) {
    std::ostringstream csv_a, csv_b;
    telemetry::write_bins_csv(a.vantages[i].bins, csv_a);
    telemetry::write_bins_csv(b.vantages[i].bins, csv_b);
    EXPECT_EQ(csv_a.str(), csv_b.str()) << a.vantages[i].name;
  }
}

TEST(Ecmp, DifferentEcmpSeedsChangeTheExperimentCollisions) {
  core::FabricIncastExperimentConfig cfg;
  cfg.num_flows = 12;  // cross-rack capacity of the small fabric
  cfg.fabric = small_fabric(1);
  cfg.num_bursts = 2;
  cfg.discard_bursts = 0;
  cfg.burst_duration = 3_ms;

  const auto a = core::run_fabric_incast_experiment(cfg);
  cfg.fabric.ecmp_seed = 2;
  const auto b = core::run_fabric_incast_experiment(cfg);

  // Same workload seed, different hash seed: the per-uplink flow histograms
  // must differ somewhere.
  ASSERT_EQ(a.leaf_ecmp.size(), b.leaf_ecmp.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.leaf_ecmp.size(); ++i) {
    if (a.leaf_ecmp[i].flows_by_uplink != b.leaf_ecmp[i].flows_by_uplink) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace incast
