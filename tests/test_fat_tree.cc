// Tests for the FatTree fabric builder: shape, reachability, named links,
// and loud unrouted-packet detection.
#include "fabric/fat_tree.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/switch.h"
#include "sim/simulator.h"

namespace incast::fabric {
namespace {

using namespace incast::sim::literals;

class RecordingHandler final : public net::PacketHandler {
 public:
  void handle_packet(const net::Packet& p) override { packets.push_back(p); }
  std::vector<net::Packet> packets;
};

TEST(FatTree, BuildsTwoTierShape) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.num_pods = 2;
  cfg.leaves_per_pod = 2;
  cfg.hosts_per_leaf = 4;
  cfg.aggs_per_pod = 0;
  cfg.num_spines = 3;
  FatTree ft{sim, cfg};

  EXPECT_FALSE(ft.three_tier());
  EXPECT_EQ(ft.num_leaves(), 4);
  EXPECT_EQ(ft.num_hosts(), 16);
  // Leaf: one downlink per host + one uplink per spine.
  EXPECT_EQ(ft.leaf(0).num_ports(), 7u);
  // Spine: one port per leaf.
  EXPECT_EQ(ft.spine(0).num_ports(), 4u);
  EXPECT_EQ(ft.switches().size(), 4u + 3u);
  // 16 host links + 4*3 uplinks, both directions each.
  EXPECT_EQ(ft.link_names().size(), 2u * (16u + 12u));
}

TEST(FatTree, BuildsThreeTierShape) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.num_pods = 2;
  cfg.leaves_per_pod = 2;
  cfg.hosts_per_leaf = 2;
  cfg.aggs_per_pod = 2;
  cfg.num_spines = 2;
  FatTree ft{sim, cfg};

  EXPECT_TRUE(ft.three_tier());
  // Leaf: hosts + one uplink per pod agg.
  EXPECT_EQ(ft.leaf(0).num_ports(), 4u);
  // Agg: one downlink per pod leaf + one uplink per spine.
  EXPECT_EQ(ft.agg(0, 0).num_ports(), 4u);
  // Spine: one port per agg fabric-wide.
  EXPECT_EQ(ft.spine(0).num_ports(), 4u);
  EXPECT_EQ(ft.switches().size(), 4u + 4u + 2u);
}

TEST(FatTree, InvalidConfigThrows) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.num_pods = 0;
  EXPECT_THROW((FatTree{sim, cfg}), std::invalid_argument);
  cfg = FatTreeConfig{};
  cfg.num_spines = 0;
  EXPECT_THROW((FatTree{sim, cfg}), std::invalid_argument);
  cfg = FatTreeConfig{};
  cfg.aggs_per_pod = -1;
  EXPECT_THROW((FatTree{sim, cfg}), std::invalid_argument);
}

TEST(FatTree, CrossRackDeliveryTwoTier) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.num_pods = 2;
  cfg.leaves_per_pod = 2;
  cfg.hosts_per_leaf = 2;
  cfg.num_spines = 2;
  FatTree ft{sim, cfg};

  // Every host sends one packet to the last host (cross-pod for most).
  RecordingHandler sink;
  const int dst = ft.num_hosts() - 1;
  ft.host(dst).register_flow(3, &sink);
  for (int src = 0; src < ft.num_hosts() - 1; ++src) {
    ft.host(src).send(
        ft.host(src).packets().acquire(
            net::make_data_packet(ft.host(src).id(), ft.host(dst).id(), 3, 0, 1460)));
  }
  sim.run();
  EXPECT_EQ(sink.packets.size(), static_cast<std::size_t>(ft.num_hosts() - 1));
  EXPECT_NO_THROW(net::check_no_unrouted(ft.switches()));
}

TEST(FatTree, CrossRackDeliveryThreeTier) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.num_pods = 2;
  cfg.leaves_per_pod = 2;
  cfg.hosts_per_leaf = 2;
  cfg.aggs_per_pod = 2;
  cfg.num_spines = 2;
  FatTree ft{sim, cfg};

  // All-pairs: every host reaches every other host through up/down routing.
  std::vector<RecordingHandler> sinks(static_cast<std::size_t>(ft.num_hosts()));
  for (int h = 0; h < ft.num_hosts(); ++h) {
    ft.host(h).register_flow(7, &sinks[static_cast<std::size_t>(h)]);
  }
  int sent = 0;
  for (int src = 0; src < ft.num_hosts(); ++src) {
    for (int dst = 0; dst < ft.num_hosts(); ++dst) {
      if (src == dst) continue;
      ft.host(src).send(
          ft.host(src).packets().acquire(
              net::make_data_packet(ft.host(src).id(), ft.host(dst).id(), 7, 0, 100)));
      ++sent;
    }
  }
  sim.run();
  int received = 0;
  for (const auto& s : sinks) received += static_cast<int>(s.packets.size());
  EXPECT_EQ(received, sent);
  EXPECT_NO_THROW(net::check_no_unrouted(ft.switches()));
}

TEST(FatTree, LinkNamesAddressEveryLink) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.num_pods = 1;
  cfg.leaves_per_pod = 2;
  cfg.hosts_per_leaf = 1;
  cfg.num_spines = 1;
  FatTree ft{sim, cfg};

  EXPECT_NE(ft.find_link("p0.l0->s0"), nullptr);
  EXPECT_NE(ft.find_link("s0->p0.l1"), nullptr);
  EXPECT_NE(ft.find_link("p0.l0.h0->p0.l0"), nullptr);
  EXPECT_EQ(ft.find_link("p9.l9->s9"), nullptr);
  EXPECT_NO_THROW((void)ft.link("p0.l1->s0"));
  EXPECT_THROW((void)ft.link("no-such-link"), std::out_of_range);
}

TEST(FatTree, UnroutedPacketsFailLoudlyWithDestination) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.num_pods = 1;
  cfg.leaves_per_pod = 2;
  cfg.hosts_per_leaf = 1;
  cfg.num_spines = 1;
  FatTree ft{sim, cfg};

  // A destination no switch knows: the leaf must count it, and the teardown
  // check must name both the switch and the destination.
  const net::NodeId bogus = 9999;
  ft.host(0).send(ft.host(0).packets().acquire(
      net::make_data_packet(ft.host(0).id(), bogus, 1, 0, 1460)));
  sim.run();
  EXPECT_EQ(ft.leaf(0).unrouted_packets(), 1);
  try {
    net::check_no_unrouted(ft.switches());
    FAIL() << "check_no_unrouted did not throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("p0.l0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("9999"), std::string::npos) << msg;
  }
}

TEST(FatTree, OversubscriptionRatio) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.num_pods = 1;
  cfg.leaves_per_pod = 2;
  cfg.hosts_per_leaf = 8;
  cfg.num_spines = 2;
  cfg.host_link = sim::Bandwidth::gigabits_per_second(10);
  cfg.leaf_uplink = sim::Bandwidth::gigabits_per_second(40);
  FatTree ft{sim, cfg};
  // 8 x 10G offered vs 2 x 40G uplink = 1:1.
  EXPECT_DOUBLE_EQ(ft.oversubscription(), 1.0);

  cfg.hosts_per_leaf = 16;
  sim::Simulator sim2;
  FatTree ft2{sim2, cfg};
  EXPECT_DOUBLE_EQ(ft2.oversubscription(), 2.0);
}

TEST(FatTree, DownlinkQueueIsTheLeafEgressToThatHost) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.num_pods = 1;
  cfg.leaves_per_pod = 2;
  cfg.hosts_per_leaf = 2;
  cfg.num_spines = 1;
  cfg.switch_queue = {.capacity_packets = 777, .ecn_threshold_packets = 33};
  FatTree ft{sim, cfg};
  EXPECT_EQ(ft.downlink_queue(3).config().capacity_packets, 777);
  EXPECT_EQ(ft.downlink_queue(3).config().ecn_threshold_packets, 33);
  EXPECT_TRUE(ft.downlink_queue(3).empty());
}

}  // namespace
}  // namespace incast::fabric
