// Tests for Switch routing and Host demultiplexing / ingress taps.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "net/host.h"
#include "net/switch.h"

namespace incast::net {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

constexpr DropTailQueue::Config kQ{.capacity_packets = 100, .ecn_threshold_packets = 0};

class RecordingHandler final : public PacketHandler {
 public:
  void handle_packet(const Packet& p) override { packets.push_back(p); }
  std::vector<Packet> packets;
};

class RecordingTap final : public IngressTap {
 public:
  void on_ingress(const Packet& p, Time now) override {
    count += 1;
    last_at = now;
    bytes += p.size_bytes;
  }
  int count{0};
  std::int64_t bytes{0};
  Time last_at{};
};

// Two hosts hanging off one switch.
struct StarFixture {
  Simulator sim;
  Switch sw{sim, 100, "sw"};
  Host h1{sim, 1, "h1"};
  Host h2{sim, 2, "h2"};

  StarFixture() {
    const auto bw = sim::Bandwidth::gigabits_per_second(10);
    h1.add_nic(bw, 1_us, kQ);
    h2.add_nic(bw, 1_us, kQ);
    const std::size_t p1 = sw.add_port(bw, 1_us, kQ);
    const std::size_t p2 = sw.add_port(bw, 1_us, kQ);
    connect_duplex(h1, 0, sw, p1);
    connect_duplex(h2, 0, sw, p2);
    sw.set_route(h1.id(), p1);
    sw.set_route(h2.id(), p2);
  }
};

TEST(Switch, RoutesByDestination) {
  StarFixture f;
  RecordingHandler sink;
  f.h2.register_flow(7, &sink);

  f.h1.send(f.h1.packets().acquire(make_data_packet(f.h1.id(), f.h2.id(), 7, 0, 1000)));
  f.sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].tcp.flow_id, 7u);
  EXPECT_EQ(f.sw.unrouted_packets(), 0);
}

TEST(Switch, CountsUnroutedPackets) {
  StarFixture f;
  f.h1.send(f.h1.packets().acquire(make_data_packet(f.h1.id(), /*dst=*/99, 7, 0, 1000)));
  f.sim.run();
  EXPECT_EQ(f.sw.unrouted_packets(), 1);
}

TEST(Switch, SharedBufferAttachesToAllPorts) {
  // An asymmetric star: h1 feeds the switch at 100 Gbps while the egress
  // toward h2 drains at 10 Gbps, so a burst piles up in the egress queue
  // until the 3 KB shared pool rejects further packets.
  Simulator sim;
  Switch sw{sim, 100, "sw"};
  Host h1{sim, 1, "h1"};
  Host h2{sim, 2, "h2"};
  const auto fast = sim::Bandwidth::gigabits_per_second(100);
  const auto slow = sim::Bandwidth::gigabits_per_second(10);
  h1.add_nic(fast, 1_us, kQ);
  h2.add_nic(slow, 1_us, kQ);
  const std::size_t p1 = sw.add_port(fast, 1_us, kQ);
  const std::size_t p2 = sw.add_port(slow, 1_us, kQ);
  connect_duplex(h1, 0, sw, p1);
  connect_duplex(h2, 0, sw, p2);
  sw.set_route(h1.id(), p1);
  sw.set_route(h2.id(), p2);

  SharedBufferPool& pool = sw.enable_shared_buffer({.total_bytes = 3'000, .alpha = 10.0});
  EXPECT_EQ(sw.shared_buffer(), &pool);

  RecordingHandler sink;
  h2.register_flow(7, &sink);
  for (int i = 0; i < 10; ++i) {
    h1.send(h1.packets().acquire(make_data_packet(h1.id(), h2.id(), 7, i * 1000, 1000)));
  }
  sim.run();
  EXPECT_LT(sink.packets.size(), 10u);
  EXPECT_GT(sw.port(p2).queue().stats().dropped_packets, 0);
}

// Shared route groups. A switch with six ports, each wired to a sink that
// records the destinations it receives, routes 10,000 destinations over
// three member lists; some are then re-programmed, with the same width and
// with another width.
class DstRecorder final : public Node {
 public:
  using Node::Node;
  void receive(Packet* p, std::size_t /*in_port*/) override {
    dsts.push_back(p->dst);
    packets_.release(p);
  }
  std::vector<NodeId> dsts;
};

struct GroupFixture {
  static constexpr int kPorts = 6;
  static constexpr NodeId kDsts = 10'000;
  static constexpr NodeId kSrc = 20'000;

  Simulator sim;
  Switch sw{sim, 30'000, "sw"};
  std::vector<std::unique_ptr<DstRecorder>> sinks;

  GroupFixture() {
    const auto bw = sim::Bandwidth::gigabits_per_second(100);
    for (int i = 0; i < kPorts; ++i) {
      sinks.push_back(std::make_unique<DstRecorder>(sim, 40'000 + i, "sink"));
      const std::size_t port =
          sw.add_port(bw, 1_us, {.capacity_packets = kDsts, .ecn_threshold_packets = 0});
      sw.port(port).connect(*sinks.back(), 0);
    }
  }

  // Sends one packet to every destination, runs, and returns the port each
  // destination's packet left through.
  std::vector<std::size_t> forward_all() {
    for (auto& sink : sinks) sink->dsts.clear();
    for (NodeId dst = 0; dst < kDsts; ++dst) {
      sw.receive(sw.packets().acquire(make_data_packet(kSrc, dst, dst, 0, 100)), 0);
    }
    sim.run();
    std::vector<std::size_t> out(kDsts, kPorts);
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      for (NodeId dst : sinks[i]->dsts) out[dst] = i;
    }
    return out;
  }
};

TEST(Switch, SharedGroupsKeepEveryDestinationOnItsOwnLatestGroup) {
  GroupFixture f;
  const std::vector<std::vector<std::size_t>> lists{{0, 1}, {2, 3, 4}, {5}};
  std::vector<std::vector<std::size_t>> latest(GroupFixture::kDsts);
  // Highest destination first, so the per-destination table is sized once.
  for (NodeId dst = GroupFixture::kDsts; dst-- > 0;) {
    latest[dst] = lists[dst % 3];
    f.sw.set_ecmp_route(dst, latest[dst]);
  }
  // Three lists of 6 members in all: the group table is a few hundred bytes
  // next to the 4 bytes each destination costs.
  const std::size_t per_dst = GroupFixture::kDsts * 4;
  EXPECT_LE(f.sw.routing_bytes(), per_dst + 512);

  std::vector<std::size_t> before(GroupFixture::kDsts);
  for (NodeId dst = 0; dst < GroupFixture::kDsts; ++dst) {
    before[dst] = *f.sw.route_port(GroupFixture::kSrc, dst, dst);
  }

  // Same width, other members: every 7th destination moves from its list to
  // one of the same width. Other width: every 11th gets four members.
  const std::vector<std::vector<std::size_t>> same_width{{4, 5}, {5, 0, 1}, {3}};
  std::vector<bool> moved(GroupFixture::kDsts, false);
  for (NodeId dst = 0; dst < GroupFixture::kDsts; ++dst) {
    if (dst % 7 == 0) {
      latest[dst] = same_width[dst % 3];
    } else if (dst % 11 == 0) {
      latest[dst] = {1, 2, 3, 4};
    } else {
      continue;
    }
    moved[dst] = true;
    f.sw.set_ecmp_route(dst, latest[dst]);
  }
  EXPECT_LE(f.sw.routing_bytes(), per_dst + 512);

  const std::vector<std::size_t> forwarded = f.forward_all();
  for (NodeId dst = 0; dst < GroupFixture::kDsts; ++dst) {
    const std::optional<std::size_t> port = f.sw.route_port(GroupFixture::kSrc, dst, dst);
    ASSERT_TRUE(port.has_value()) << "dst " << dst;
    EXPECT_EQ(f.sw.route_width(dst), latest[dst].size()) << "dst " << dst;
    EXPECT_NE(std::find(latest[dst].begin(), latest[dst].end(), *port), latest[dst].end())
        << "dst " << dst << " routes outside its latest group";
    EXPECT_EQ(forwarded[dst], *port) << "dst " << dst;
    if (!moved[dst]) {
      EXPECT_EQ(*port, before[dst]) << "dst " << dst << " changed without being re-programmed";
    }
  }
  EXPECT_EQ(f.sw.unrouted_packets(), 0);
}

TEST(Switch, GroupTableRefusesToPassItsCapacity) {
  Simulator sim;
  Switch sw{sim, 1, "sw"};
  const auto bw = sim::Bandwidth::gigabits_per_second(10);
  sw.add_port(bw, 1_us, kQ);
  sw.add_port(bw, 1_us, kQ);
  // A group wider than a slice can count is refused outright.
  constexpr std::size_t kWidth = Switch::kMaxRouteWidth;
  EXPECT_THROW(sw.set_ecmp_route(0, std::vector<std::size_t>(kWidth + 1, 0)),
               std::length_error);
  EXPECT_EQ(sw.route_width(0), 0u);
  // Lists over two ports, list k naming port 1 at position k only, so no
  // two are alike: `full` lists of the widest width and one of `rest`
  // members fill the table exactly.
  const auto list = [](std::size_t k, std::size_t width) {
    std::vector<std::size_t> members(width, 0);
    members[k] = 1;
    return members;
  };
  constexpr std::size_t full = Switch::kMaxGroupEntries / kWidth;
  constexpr std::size_t rest = Switch::kMaxGroupEntries % kWidth;
  static_assert(full < kWidth && rest > 1, "every list below must be distinct and shared");
  for (std::size_t k = 0; k < full; ++k) {
    sw.set_ecmp_route(static_cast<NodeId>(k), list(k, kWidth));
  }
  sw.set_ecmp_route(full, list(0, rest));
  EXPECT_THROW(sw.set_ecmp_route(full + 1, list(full, kWidth)), std::length_error);
  EXPECT_THROW(sw.set_route(full + 1, 1), std::length_error);
  // A refused route leaves the table as it was, and a list already stored
  // can still be given to another destination.
  EXPECT_EQ(sw.route_width(full + 1), 0u);
  const std::size_t bytes = sw.routing_bytes();
  sw.set_ecmp_route(10, list(3, kWidth));
  EXPECT_EQ(sw.route_width(10), kWidth);
  EXPECT_EQ(sw.routing_bytes(), bytes);
}

TEST(Switch, RoutesToEachOfMoreThan65535Ports) {
  // A dumbbell's sender ToR has a port, and a single-port route, per
  // sender: past 65,535 of them every route must still land on its own
  // port, with the tables linear in the port count.
  constexpr std::size_t kPorts = 65'600;
  Simulator sim;
  Switch sw{sim, 100'000, "tor"};
  DstRecorder sink{sim, 100'001, "sink"};
  const auto bw = sim::Bandwidth::gigabits_per_second(10);
  for (std::size_t i = 0; i < kPorts; ++i) {
    const std::size_t port = sw.add_port(bw, 1_us, kQ);
    sw.port(port).connect(sink, 0);
    sw.set_route(static_cast<NodeId>(i), port);
  }
  for (std::size_t i = 0; i < kPorts; ++i) {
    const auto dst = static_cast<NodeId>(i);
    ASSERT_EQ(sw.route_width(dst), 1u) << "dst " << dst;
    ASSERT_EQ(sw.route_port(100'001, dst, 1), std::optional<std::size_t>{i}) << "dst " << dst;
  }
  // Route, per-destination slice, group pointer and index, singleton index.
  EXPECT_LE(sw.routing_bytes(), 2 * kPorts * (4 + sizeof(Port*) + 4 + 4));

  const std::vector<NodeId> sent{0, 65'534, 65'535, 65'536, kPorts - 1};
  for (const NodeId dst : sent) {
    sw.receive(sw.packets().acquire(make_data_packet(100'001, dst, 1, 0, 100)), 0);
  }
  sim.run();
  std::vector<NodeId> arrived = sink.dsts;
  std::sort(arrived.begin(), arrived.end());
  EXPECT_EQ(arrived, sent);
  for (const NodeId dst : sent) {
    EXPECT_EQ(sw.port(dst).queue().stats().dequeued_packets, 1) << "dst " << dst;
  }
  EXPECT_EQ(sw.unrouted_packets(), 0);
}

TEST(Host, DemuxesByFlowId) {
  StarFixture f;
  RecordingHandler flow_a;
  RecordingHandler flow_b;
  f.h2.register_flow(1, &flow_a);
  f.h2.register_flow(2, &flow_b);

  f.h1.send(f.h1.packets().acquire(make_data_packet(f.h1.id(), f.h2.id(), 1, 0, 100)));
  f.h1.send(f.h1.packets().acquire(make_data_packet(f.h1.id(), f.h2.id(), 2, 0, 100)));
  f.h1.send(f.h1.packets().acquire(make_data_packet(f.h1.id(), f.h2.id(), 1, 100, 100)));
  f.sim.run();
  EXPECT_EQ(flow_a.packets.size(), 2u);
  EXPECT_EQ(flow_b.packets.size(), 1u);
}

TEST(Host, UnclaimedPacketsAreCounted) {
  StarFixture f;
  f.h1.send(f.h1.packets().acquire(make_data_packet(f.h1.id(), f.h2.id(), 9, 0, 100)));
  f.sim.run();
  EXPECT_EQ(f.h2.unclaimed_packets(), 1);
}

TEST(Host, UnregisterStopsDelivery) {
  StarFixture f;
  RecordingHandler sink;
  f.h2.register_flow(1, &sink);
  f.h2.unregister_flow(1);
  f.h1.send(f.h1.packets().acquire(make_data_packet(f.h1.id(), f.h2.id(), 1, 0, 100)));
  f.sim.run();
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(f.h2.unclaimed_packets(), 1);
}

TEST(Host, FlowTableKeepsEveryFlowReachableThroughChurn) {
  // Register many flows (forcing the flat table to grow), unregister a
  // scattered subset (exercising backward-shift deletion inside probe
  // runs), re-register some of them, then check every flow id either
  // reaches its handler or counts as unclaimed — never the wrong handler.
  StarFixture f;
  constexpr int kFlows = 600;
  std::vector<RecordingHandler> handlers(kFlows);
  std::vector<bool> registered(kFlows, false);
  for (int i = 0; i < kFlows; ++i) {
    f.h2.register_flow(static_cast<FlowId>(i) * 7 + 1, &handlers[static_cast<std::size_t>(i)]);
    registered[static_cast<std::size_t>(i)] = true;
  }
  for (int i = 0; i < kFlows; i += 3) {
    f.h2.unregister_flow(static_cast<FlowId>(i) * 7 + 1);
    registered[static_cast<std::size_t>(i)] = false;
  }
  for (int i = 0; i < kFlows; i += 9) {
    f.h2.register_flow(static_cast<FlowId>(i) * 7 + 1, &handlers[static_cast<std::size_t>(i)]);
    registered[static_cast<std::size_t>(i)] = true;
  }
  f.h2.unregister_flow(999'999);  // never registered: a no-op

  int expected_unclaimed = 0;
  for (int i = 0; i < kFlows; ++i) {
    const FlowId flow = static_cast<FlowId>(i) * 7 + 1;
    f.h2.receive(f.h2.packets().acquire(make_data_packet(f.h1.id(), f.h2.id(), flow, 0, 100)), 0);
    if (!registered[static_cast<std::size_t>(i)]) ++expected_unclaimed;
  }
  EXPECT_EQ(f.h2.unclaimed_packets(), expected_unclaimed);
  for (int i = 0; i < kFlows; ++i) {
    const auto& got = handlers[static_cast<std::size_t>(i)].packets;
    if (!registered[static_cast<std::size_t>(i)]) {
      EXPECT_TRUE(got.empty()) << "flow index " << i;
      continue;
    }
    ASSERT_EQ(got.size(), 1u) << "flow index " << i;
    EXPECT_EQ(got[0].tcp.flow_id, static_cast<FlowId>(i) * 7 + 1);
  }
}

TEST(Host, IngressTapsSeeEveryPacketIncludingUnclaimed) {
  StarFixture f;
  RecordingTap tap;
  f.h2.add_ingress_tap(&tap);
  RecordingHandler sink;
  f.h2.register_flow(1, &sink);

  f.h1.send(f.h1.packets().acquire(make_data_packet(f.h1.id(), f.h2.id(), 1, 0, 1000)));
  f.h1.send(f.h1.packets().acquire(
      make_data_packet(f.h1.id(), f.h2.id(), 99, 0, 500)));  // unclaimed
  f.sim.run();
  EXPECT_EQ(tap.count, 2);
  EXPECT_EQ(tap.bytes, 1000 + kHeaderBytes + 500 + kHeaderBytes);
  EXPECT_GT(tap.last_at, Time::zero());
}

TEST(Host, MultipleTapsAllInvoked) {
  StarFixture f;
  RecordingTap t1;
  RecordingTap t2;
  f.h2.add_ingress_tap(&t1);
  f.h2.add_ingress_tap(&t2);
  f.h1.send(f.h1.packets().acquire(make_data_packet(f.h1.id(), f.h2.id(), 5, 0, 100)));
  f.sim.run();
  EXPECT_EQ(t1.count, 1);
  EXPECT_EQ(t2.count, 1);
}

TEST(Host, NicBandwidthReported) {
  StarFixture f;
  EXPECT_EQ(f.h1.nic_bandwidth(), sim::Bandwidth::gigabits_per_second(10));
}

}  // namespace
}  // namespace incast::net
