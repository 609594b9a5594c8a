// Tests for Port/Link timing: serialization, propagation, back-to-back
// transmission, and queue interaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "net/host.h"
#include "net/node.h"
#include "net/packet_pool.h"

namespace incast::net {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

// A node that records every delivered packet with its arrival time.
class SinkNode final : public Node {
 public:
  using Node::Node;

  void receive(Packet* p, std::size_t in_port) override {
    if (on_arrival) on_arrival();
    arrivals.push_back({sim_.now(), *p, in_port});
    packets_.release(p);
  }

  struct Arrival {
    Time at;
    Packet packet;
    std::size_t in_port;
  };
  std::vector<Arrival> arrivals;
  std::function<void()> on_arrival;  // runs before the arrival is recorded
};

class SourceNode final : public Node {
 public:
  using Node::Node;
  void receive(Packet* p, std::size_t) override { packets_.release(p); }
};

struct LinkFixture {
  Simulator sim;
  SourceNode src{sim, 0, "src"};
  SinkNode dst{sim, 1, "dst"};

  // 10 Gbps, 5 us propagation.
  LinkFixture() {
    src.add_port(sim::Bandwidth::gigabits_per_second(10), 5_us,
                 DropTailQueue::Config{.capacity_packets = 100, .ecn_threshold_packets = 0});
    src.port(0).connect(dst, 3);
  }
};

TEST(Link, DeliveryTimeIsSerializationPlusPropagation) {
  LinkFixture f;
  f.src.port(0).send(f.src.packets().acquire(make_data_packet(0, 1, 1, 0, 1460)));
  f.sim.run();
  ASSERT_EQ(f.dst.arrivals.size(), 1u);
  // 1500 B at 10 Gbps = 1.2 us serialization + 5 us propagation.
  EXPECT_EQ(f.dst.arrivals[0].at, Time::microseconds(6.2));
  EXPECT_EQ(f.dst.arrivals[0].in_port, 3u);
}

TEST(Link, BackToBackPacketsAreSpacedBySerializationTime) {
  LinkFixture f;
  for (int i = 0; i < 3; ++i) {
    f.src.port(0).send(f.src.packets().acquire(make_data_packet(0, 1, 1, i * 1460, 1460)));
  }
  f.sim.run();
  ASSERT_EQ(f.dst.arrivals.size(), 3u);
  // Pipeline: arrivals at 6.2, 7.4, 8.6 us.
  EXPECT_EQ(f.dst.arrivals[0].at, Time::microseconds(6.2));
  EXPECT_EQ(f.dst.arrivals[1].at, Time::microseconds(7.4));
  EXPECT_EQ(f.dst.arrivals[2].at, Time::microseconds(8.6));
  // FIFO order preserved.
  EXPECT_EQ(f.dst.arrivals[0].packet.tcp.seq, 0);
  EXPECT_EQ(f.dst.arrivals[2].packet.tcp.seq, 2 * 1460);
}

TEST(Link, SmallPacketsSerializeFaster) {
  LinkFixture f;
  f.src.port(0).send(f.src.packets().acquire(make_ack_packet(0, 1, 1, 0, false)));
  f.sim.run();
  ASSERT_EQ(f.dst.arrivals.size(), 1u);
  // 40 B at 10 Gbps = 32 ns + 5 us.
  EXPECT_EQ(f.dst.arrivals[0].at, 5_us + Time::nanoseconds(32));
}

TEST(Link, TransmitterIdlesAndRestartsBetweenPackets) {
  LinkFixture f;
  f.src.port(0).send(f.src.packets().acquire(make_data_packet(0, 1, 1, 0, 1460)));
  f.sim.run();
  EXPECT_FALSE(f.src.port(0).busy());
  // A later packet starts a fresh serialization from its send time.
  f.sim.schedule_at(100_us, [&] {
    f.src.port(0).send(f.src.packets().acquire(make_data_packet(0, 1, 1, 0, 1460)));
  });
  f.sim.run();
  ASSERT_EQ(f.dst.arrivals.size(), 2u);
  EXPECT_EQ(f.dst.arrivals[1].at, 100_us + Time::microseconds(6.2));
}

TEST(Link, QueueOverflowDropsAreNotDelivered) {
  Simulator sim;
  SourceNode src{sim, 0, "src"};
  SinkNode dst{sim, 1, "dst"};
  src.add_port(sim::Bandwidth::gigabits_per_second(10), 1_us,
               DropTailQueue::Config{.capacity_packets = 2, .ecn_threshold_packets = 0});
  src.port(0).connect(dst, 0);

  // 10 sends while the transmitter is busy with the first: one in flight,
  // two queued, rest dropped.
  for (int i = 0; i < 10; ++i) {
    src.port(0).send(src.packets().acquire(make_data_packet(0, 1, 1, 0, 1460)));
  }
  sim.run();
  EXPECT_EQ(dst.arrivals.size(), 3u);
  EXPECT_EQ(src.port(0).queue().stats().dropped_packets, 7);
}

// Packets live in the loop's pool from send to receive, queued ones
// included: after a burst through one port, the pool's high water is the
// peak of queued plus on-the-wire packets, and nothing stays checked out.
TEST(Link, PoolHighWaterIsThePeakOfQueuedAndWirePackets) {
  Simulator sim;
  SourceNode src{sim, 0, "src"};
  SinkNode dst{sim, 1, "dst"};
  src.add_port(sim::Bandwidth::gigabits_per_second(10), 5_us,
               DropTailQueue::Config{.capacity_packets = 100, .ecn_threshold_packets = 0});
  src.port(0).connect(dst, 0);
  const DropTailQueue& queue = src.port(0).queue();

  // Queued + wire = queued + (dequeued - arrived), sampled after every send
  // and before every arrival is counted.
  std::int64_t peak = 0;
  const auto sample = [&] {
    const std::int64_t live = queue.packets() + queue.stats().dequeued_packets -
                              static_cast<std::int64_t>(dst.arrivals.size());
    peak = std::max(peak, live);
  };
  // Two bursts of 10 back-to-back 1500 B sends; the second arrives while
  // the first is still serializing and propagating.
  for (const Time at : {Time::zero(), 3_us}) {
    sim.schedule_at(at, [&] {
      for (int i = 0; i < 10; ++i) {
        src.port(0).send(src.packets().acquire(make_data_packet(0, 1, 1, i * 1460, 1460)));
        sample();
      }
    });
  }
  dst.on_arrival = sample;
  sim.run();

  EXPECT_EQ(dst.arrivals.size(), 20u);
  EXPECT_GT(peak, 10);  // the second burst found the first still in flight
  EXPECT_EQ(packet_pool(sim).high_water(), static_cast<std::size_t>(peak));
  EXPECT_EQ(packet_pool(sim).in_use(), 0u);
}

TEST(Link, ConnectDuplexWiresBothDirections) {
  Simulator sim;
  SinkNode a{sim, 0, "a"};
  SinkNode b{sim, 1, "b"};
  const DropTailQueue::Config qcfg{.capacity_packets = 10, .ecn_threshold_packets = 0};
  a.add_port(sim::Bandwidth::gigabits_per_second(10), 1_us, qcfg);
  b.add_port(sim::Bandwidth::gigabits_per_second(10), 1_us, qcfg);
  connect_duplex(a, 0, b, 0);

  a.port(0).send(a.packets().acquire(make_data_packet(0, 1, 1, 0, 100)));
  b.port(0).send(b.packets().acquire(make_data_packet(1, 0, 2, 0, 100)));
  sim.run();
  ASSERT_EQ(a.arrivals.size(), 1u);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(a.arrivals[0].packet.tcp.flow_id, 2u);
  EXPECT_EQ(b.arrivals[0].packet.tcp.flow_id, 1u);
}

TEST(Node, PortAccessorsAndMetadata) {
  Simulator sim;
  SourceNode n{sim, 42, "node42"};
  EXPECT_EQ(n.id(), 42u);
  EXPECT_EQ(n.name(), "node42");
  EXPECT_EQ(n.num_ports(), 0u);
  const std::size_t i = n.add_port(
      sim::Bandwidth::gigabits_per_second(100), 2_us,
      DropTailQueue::Config{.capacity_packets = 5, .ecn_threshold_packets = 0});
  EXPECT_EQ(i, 0u);
  EXPECT_EQ(n.num_ports(), 1u);
  EXPECT_EQ(n.port(0).bandwidth(), sim::Bandwidth::gigabits_per_second(100));
  EXPECT_EQ(n.port(0).propagation_delay(), 2_us);
  EXPECT_FALSE(n.port(0).connected());
}

}  // namespace
}  // namespace incast::net
