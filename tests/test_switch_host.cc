// Tests for Switch routing and Host demultiplexing / ingress taps.
#include <gtest/gtest.h>

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
