// Tests for the Dumbbell topology builder.
#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace incast::net {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

class RecordingHandler final : public PacketHandler {
 public:
  void handle_packet(const Packet& p) override { packets.push_back(p); }
  std::vector<Packet> packets;
};

TEST(Dumbbell, BuildsRequestedShape) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.num_senders = 4;
  cfg.num_receivers = 2;
  Dumbbell d{sim, cfg};
  EXPECT_EQ(d.num_senders(), 4);
  EXPECT_EQ(d.num_receivers(), 2);
  // ToR_s: 4 host ports + 1 uplink; ToR_r: 1 uplink + 2 downlinks.
  EXPECT_EQ(d.sender_tor().num_ports(), 5u);
  EXPECT_EQ(d.receiver_tor().num_ports(), 3u);
}

TEST(Dumbbell, SenderToReceiverDelivery) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.num_senders = 3;
  Dumbbell d{sim, cfg};

  RecordingHandler sink;
  d.receiver(0).register_flow(5, &sink);
  d.sender(2).send(d.sender(2).packets().acquire(
      make_data_packet(d.sender(2).id(), d.receiver(0).id(), 5, 0, 1460)));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(d.sender_tor().unrouted_packets(), 0);
  EXPECT_EQ(d.receiver_tor().unrouted_packets(), 0);
}

TEST(Dumbbell, ReverseDelivery) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.num_senders = 2;
  Dumbbell d{sim, cfg};

  RecordingHandler sink;
  d.sender(1).register_flow(9, &sink);
  d.receiver(0).send(d.receiver(0).packets().acquire(
      make_ack_packet(d.receiver(0).id(), d.sender(1).id(), 9, 0, false)));
  sim.run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(Dumbbell, BaseRttIsAboutThirtyMicroseconds) {
  Simulator sim;
  Dumbbell d{sim, DumbbellConfig{.num_senders = 1}};
  // Paper Section 4: "The round-trip time (RTT) is 30 us".
  const Time rtt = d.base_rtt(1500);
  EXPECT_GT(rtt, 28_us);
  EXPECT_LT(rtt, 32_us);
}

TEST(Dumbbell, MeasuredRttMatchesComputedBaseRtt) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.num_senders = 1;
  Dumbbell d{sim, cfg};

  // Echo a data packet off the receiver and time the round trip.
  class Echo final : public PacketHandler {
   public:
    Echo(Host& host, NodeId peer) : host_{host}, peer_{peer} {}
    void handle_packet(const Packet& p) override {
      host_.send(host_.packets().acquire(
          make_ack_packet(host_.id(), peer_, p.tcp.flow_id, 0, false)));
    }

   private:
    Host& host_;
    NodeId peer_;
  };
  class Timer final : public PacketHandler {
   public:
    explicit Timer(Simulator& sim) : sim_{sim} {}
    void handle_packet(const Packet&) override { at = sim_.now(); }
    Time at{};

   private:
    Simulator& sim_;
  };

  Echo echo{d.receiver(0), d.sender(0).id()};
  Timer timer{sim};
  d.receiver(0).register_flow(1, &echo);
  d.sender(0).register_flow(1, &timer);

  d.sender(0).send(d.sender(0).packets().acquire(
      make_data_packet(d.sender(0).id(), d.receiver(0).id(), 1, 0, 1460)));
  sim.run();

  const Time expected = d.base_rtt(1500);
  EXPECT_EQ(timer.at, expected);
}

TEST(Dumbbell, BottleneckQueueIsReceiverDownlink) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.num_senders = 2;
  cfg.switch_queue = {.capacity_packets = 1333, .ecn_threshold_packets = 65};
  Dumbbell d{sim, cfg};
  EXPECT_EQ(d.bottleneck_queue(0).config().capacity_packets, 1333);
  EXPECT_EQ(d.bottleneck_queue(0).config().ecn_threshold_packets, 65);
  EXPECT_TRUE(d.bottleneck_queue(0).empty());
}

TEST(Dumbbell, SharedBufferOnReceiverTorOnly) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.num_senders = 1;
  cfg.shared_buffer = SharedBufferPool::Config{.total_bytes = 1'000'000, .alpha = 1.0};
  Dumbbell d{sim, cfg};
  EXPECT_NE(d.receiver_tor().shared_buffer(), nullptr);
  EXPECT_EQ(d.sender_tor().shared_buffer(), nullptr);
}

TEST(Dumbbell, NamedLinksCoverEveryLink) {
  sim::Simulator sim;
  DumbbellConfig cfg;
  cfg.num_senders = 2;
  cfg.num_receivers = 1;
  Dumbbell d{sim, cfg};

  // 2 sender links + core + 1 receiver link, both directions each.
  EXPECT_EQ(d.link_names().size(), 8u);
  // The named core link joins the two ToRs, one port per direction.
  EXPECT_EQ(d.link("tor_s->tor_r").peer(), &d.receiver_tor());
  EXPECT_EQ(d.link("tor_r->tor_s").peer(), &d.sender_tor());
  EXPECT_NE(d.find_link("sender0->tor_s"), nullptr);
  EXPECT_NE(d.find_link("tor_r->receiver0"), nullptr);
  EXPECT_EQ(d.find_link("bogus"), nullptr);
  EXPECT_THROW(d.link("bogus"), std::out_of_range);
}

TEST(Dumbbell, NodeIdsAreDistinct) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.num_senders = 3;
  cfg.num_receivers = 2;
  Dumbbell d{sim, cfg};
  std::vector<NodeId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(d.sender(i).id());
  for (int i = 0; i < 2; ++i) ids.push_back(d.receiver(i).id());
  ids.push_back(d.sender_tor().id());
  ids.push_back(d.receiver_tor().id());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

}  // namespace
}  // namespace incast::net
