// Pins how fabric::FatTree wires and routes a fabric: every switch's route
// to every node (its width and the member each of a spread of flows takes,
// which fixes the members and their order under the seeded flow hash), the
// LinkDirectory's link names in wiring order, and the name lookups
// (find_link, link's error text, find_viq, viq_names). A change to how a
// fabric is built or how its links are named must leave every golden
// unchanged: they are what experiments, fault profiles and telemetry see.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "fabric/fat_tree.h"
#include "net/pfc.h"
#include "net/switch.h"
#include "sim/simulator.h"

namespace incast::fabric {
namespace {

// FNV-1a over a stream of fields: a string and a separator byte, or the
// eight bytes of a number, least significant first.
struct Fnv {
  std::uint64_t hash{0xcbf29ce484222325ULL};
  void add(std::string_view s) {
    for (const char c : s) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    hash ^= 0xff;
    hash *= 0x100000001b3ULL;
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
};

// Every (switch, destination) in switch and NodeId order: the route's width
// and, for 4 * width + 4 flows, the egress port route_port() gives.
std::uint64_t routes_fnv(FatTree& ft) {
  Fnv fnv;
  const auto nodes = static_cast<net::NodeId>(ft.nodes().size());
  const auto hosts = static_cast<net::NodeId>(ft.num_hosts());
  for (const net::Switch* sw : ft.switches()) {
    fnv.add(sw->name());
    for (net::NodeId dst = 0; dst < nodes; ++dst) {
      const std::size_t width = sw->route_width(dst);
      fnv.add(dst);
      fnv.add(width);
      const net::NodeId src = (dst + 1) % hosts;
      for (net::FlowId flow = 0; flow < 4 * width + 4; ++flow) {
        const auto port = sw->route_port(src, dst, flow);
        fnv.add(port.has_value() ? *port : 9999);
      }
    }
  }
  return fnv.hash;
}

std::uint64_t names_fnv(const FatTree& ft) {
  Fnv fnv;
  for (const std::string& name : ft.link_names()) fnv.add(name);
  return fnv.hash;
}

// The scaling experiment's default fabric: 432 hosts, three tiers.
FatTreeConfig three_tier_config() {
  return FatTreeConfig{.num_pods = 12,
                       .leaves_per_pod = 6,
                       .hosts_per_leaf = 6,
                       .aggs_per_pod = 6,
                       .num_spines = 36};
}

FatTreeConfig two_tier_config() {
  return FatTreeConfig{.num_pods = 3,
                       .leaves_per_pod = 4,
                       .hosts_per_leaf = 5,
                       .aggs_per_pod = 0,
                       .num_spines = 3};
}

// A small three-tier PFC fabric for the name lookups.
FatTreeConfig pfc_config() {
  FatTreeConfig cfg{.num_pods = 2,
                    .leaves_per_pod = 2,
                    .hosts_per_leaf = 2,
                    .aggs_per_pod = 2,
                    .num_spines = 2};
  cfg.pfc = net::LosslessInputQueue::Config{};
  return cfg;
}

constexpr std::uint64_t kThreeTierRoutesFnv = 0x22b84fdb657f213aULL;
constexpr std::uint64_t kThreeTierNamesFnv = 0x5ace90b5d8e2ac55ULL;
constexpr std::uint64_t kTwoTierRoutesFnv = 0xb23da86e8deeacb4ULL;
constexpr std::uint64_t kTwoTierNamesFnv = 0xe82481c71b0aa685ULL;
constexpr std::uint64_t kPfcLinkErrorFnv = 0x1c4888bfa4b7331eULL;
constexpr std::uint64_t kPfcViqNamesFnv = 0x20aebedfd4463a3dULL;

TEST(FabricWiring, ThreeTierRoutesAndNamesArePinned) {
  sim::Simulator sim;
  FatTree ft{sim, three_tier_config()};
  ASSERT_EQ(ft.num_hosts(), 432);
  EXPECT_EQ(ft.link_names().size(), 6912u);
  EXPECT_EQ(routes_fnv(ft), kThreeTierRoutesFnv) << std::hex << routes_fnv(ft);
  EXPECT_EQ(names_fnv(ft), kThreeTierNamesFnv) << std::hex << names_fnv(ft);
}

TEST(FabricWiring, TwoTierRoutesAndNamesArePinned) {
  sim::Simulator sim;
  FatTree ft{sim, two_tier_config()};
  EXPECT_EQ(ft.link_names().size(), 2u * (60u + 12u * 3u));
  EXPECT_EQ(routes_fnv(ft), kTwoTierRoutesFnv) << std::hex << routes_fnv(ft);
  EXPECT_EQ(names_fnv(ft), kTwoTierNamesFnv) << std::hex << names_fnv(ft);
}

TEST(FabricWiring, FindLinkMatchesWholeNamesOnly) {
  sim::Simulator sim;
  FatTree ft{sim, two_tier_config()};
  const std::size_t up = ft.leaf_uplink_port_indices(5)[2];
  EXPECT_EQ(ft.find_link("p1.l1->s2"), &ft.leaf(5).port(up));
  EXPECT_EQ(&ft.link("p1.l1->s2"), &ft.leaf(5).port(up));
  EXPECT_EQ(ft.find_link("s2->p1.l1"), &ft.spine(2).port(5));
  EXPECT_EQ(ft.find_link("p0.l0.h0->p0.l0"), &ft.host(0).port(0));
  EXPECT_EQ(ft.find_link(ft.downlink_name(7)), &ft.leaf(1).port(2));
  for (const char* bogus : {"", "->", "p1.l1->s", "p1.l1->s22", "p1.l1-s2", "p1.l1>s2",
                            "p1.l1->s2 ", " p1.l1->s2", "p1.l1", "s2", "p1.l1->p1.l1",
                            "p9.l9->s9"}) {
    EXPECT_EQ(ft.find_link(bogus), nullptr) << '\'' << bogus << '\'';
  }
}

TEST(FabricWiring, PfcLookupsArePinned) {
  sim::Simulator sim;
  FatTree ft{sim, pfc_config()};

  // link() names every link when it cannot find one.
  try {
    (void)ft.link("bogus");
    FAIL() << "link(\"bogus\") did not throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("no link named 'bogus'; registered links: p0.l0.h0->p0.l0 ", 0), 0u)
        << what;
    Fnv fnv;
    fnv.add(what);
    EXPECT_EQ(fnv.hash, kPfcLinkErrorFnv) << std::hex << fnv.hash;
  }

  // One VIQ per switch ingress: every link but the 8 into hosts.
  const auto viqs = ft.viq_names();
  EXPECT_EQ(viqs.size(), ft.link_names().size() - 8u);
  Fnv fnv;
  for (const std::string& name : viqs) {
    fnv.add(name);
    EXPECT_NE(ft.find_viq(name), nullptr) << name;
  }
  EXPECT_EQ(fnv.hash, kPfcViqNamesFnv) << std::hex << fnv.hash;
  EXPECT_EQ(viqs.front(), "p0.l0.h0->p0.l0:viq0");

  EXPECT_EQ(ft.find_viq("p0.l0.h1->p0.l0:viq1"), ft.leaf(0).viq(1));
  EXPECT_EQ(ft.find_viq("p1.a1->s1:viq3"), ft.spine(1).viq(3));
  EXPECT_EQ(ft.find_viq("s1->p1.a1:viq3"), ft.agg(1, 1).viq(3));
  // Wrong index, a host on the receiving side, unknown links, bad suffixes.
  for (const char* bogus : {"p0.l0.h1->p0.l0:viq0", "p0.l0->p0.l0.h0:viq0",
                            "p0.l0.h1->p0.l0:viq", "p0.l0.h1->p0.l0:viq1x",
                            "p0.l0.h1->p0.l0:viq-1", "p0.l0.h1->p0.l0", "p9->s9:viq0",
                            ":viq0", ""}) {
    EXPECT_EQ(ft.find_viq(bogus), nullptr) << '\'' << bogus << '\'';
  }
}

}  // namespace
}  // namespace incast::fabric
