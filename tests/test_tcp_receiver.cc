// Unit tests for TcpReceiver: reassembly, duplicate ACKs, ECE echoing,
// delayed-ACK behaviour.
#include "tcp/tcp_receiver.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/node.h"

namespace incast::tcp {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

constexpr net::FlowId kFlow = 1;

// Two directly connected hosts; ACKs emitted by the receiver under test are
// captured at the peer by a recording handler.
struct ReceiverFixture {
  Simulator sim;
  net::Host peer;
  net::Host local;

  struct AckLog final : public net::PacketHandler {
    void handle_packet(const net::Packet& p) override { acks.push_back(p); }
    std::vector<net::Packet> acks;
  };
  AckLog ack_log;

  explicit ReceiverFixture()
      : peer{sim, 0, "peer"}, local{sim, 1, "local"} {
    const net::DropTailQueue::Config q{.capacity_packets = 1000, .ecn_threshold_packets = 0};
    peer.add_nic(sim::Bandwidth::gigabits_per_second(10), 1_us, q);
    local.add_nic(sim::Bandwidth::gigabits_per_second(10), 1_us, q);
    net::connect_duplex(peer, 0, local, 0);
    peer.register_flow(kFlow, &ack_log);
  }

  net::Packet data(std::int64_t seq, std::int64_t len, bool ce = false) {
    net::Packet p = net::make_data_packet(peer.id(), local.id(), kFlow, seq, len);
    if (ce) p.ecn = net::Ecn::kCe;
    return p;
  }
};

TcpConfig immediate_ack_config() {
  TcpConfig c;
  c.delayed_ack = false;
  return c;
}

TEST(TcpReceiver, InOrderDataAdvancesRcvNxtAndAcks) {
  ReceiverFixture f;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, immediate_ack_config()};
  rx.handle_packet(f.data(0, 1460));
  rx.handle_packet(f.data(1460, 1460));
  f.sim.run();
  EXPECT_EQ(rx.rcv_nxt(), 2920);
  ASSERT_EQ(f.ack_log.acks.size(), 2u);
  EXPECT_EQ(f.ack_log.acks[0].tcp.ack, 1460);
  EXPECT_EQ(f.ack_log.acks[1].tcp.ack, 2920);
}

TEST(TcpReceiver, OutOfOrderTriggersDuplicateAck) {
  ReceiverFixture f;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, immediate_ack_config()};
  rx.handle_packet(f.data(0, 1460));
  // Gap: segment 2 skipped.
  rx.handle_packet(f.data(2920, 1460));
  rx.handle_packet(f.data(4380, 1460));
  f.sim.run();
  EXPECT_EQ(rx.rcv_nxt(), 1460);
  ASSERT_EQ(f.ack_log.acks.size(), 3u);
  // Both out-of-order arrivals re-ACK 1460.
  EXPECT_EQ(f.ack_log.acks[1].tcp.ack, 1460);
  EXPECT_EQ(f.ack_log.acks[2].tcp.ack, 1460);
  EXPECT_EQ(rx.stats().out_of_order_packets, 2);
  EXPECT_EQ(rx.stats().dup_acks_sent, 2);
}

TEST(TcpReceiver, FillingGapDeliversBufferedData) {
  ReceiverFixture f;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, immediate_ack_config()};
  std::int64_t delivered = 0;
  rx.set_on_data([&](std::int64_t d) { delivered += d; });

  rx.handle_packet(f.data(1460, 1460));
  rx.handle_packet(f.data(2920, 1460));
  EXPECT_EQ(rx.rcv_nxt(), 0);
  rx.handle_packet(f.data(0, 1460));  // fills the gap
  f.sim.run();
  EXPECT_EQ(rx.rcv_nxt(), 4380);
  EXPECT_EQ(delivered, 4380);
  // The gap-filling ACK acknowledges everything at once.
  EXPECT_EQ(f.ack_log.acks.back().tcp.ack, 4380);
}

TEST(TcpReceiver, OverlappingRetransmissionHandled) {
  ReceiverFixture f;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, immediate_ack_config()};
  rx.handle_packet(f.data(0, 1460));
  rx.handle_packet(f.data(0, 1460));  // spurious retransmission
  f.sim.run();
  EXPECT_EQ(rx.rcv_nxt(), 1460);
  // The duplicate still produced an ACK so the sender can progress.
  EXPECT_EQ(f.ack_log.acks.size(), 2u);
  EXPECT_EQ(f.ack_log.acks[1].tcp.ack, 1460);
}

TEST(TcpReceiver, DisjointOutOfOrderRangesMergeCorrectly) {
  ReceiverFixture f;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, immediate_ack_config()};
  // Arrive: [2], [4], [3], then [1] (1460-byte segments by index).
  rx.handle_packet(f.data(2 * 1460, 1460));
  rx.handle_packet(f.data(4 * 1460, 1460));
  rx.handle_packet(f.data(3 * 1460, 1460));
  rx.handle_packet(f.data(0, 1460));
  rx.handle_packet(f.data(1460, 1460));
  f.sim.run();
  EXPECT_EQ(rx.rcv_nxt(), 5 * 1460);
}

TEST(TcpReceiver, EceEchoesCeWithImmediateAcks) {
  ReceiverFixture f;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, immediate_ack_config()};
  rx.handle_packet(f.data(0, 1460, /*ce=*/false));
  rx.handle_packet(f.data(1460, 1460, /*ce=*/true));
  rx.handle_packet(f.data(2920, 1460, /*ce=*/false));
  f.sim.run();
  ASSERT_EQ(f.ack_log.acks.size(), 3u);
  EXPECT_FALSE(f.ack_log.acks[0].tcp.ece);
  EXPECT_TRUE(f.ack_log.acks[1].tcp.ece);
  EXPECT_FALSE(f.ack_log.acks[2].tcp.ece);
  EXPECT_EQ(rx.stats().ce_packets_received, 1);
}

TEST(TcpReceiver, DelayedAckCoalescesSegments) {
  ReceiverFixture f;
  TcpConfig cfg;
  cfg.delayed_ack = true;
  cfg.ack_every_n_segments = 2;
  cfg.delayed_ack_timeout = 500_us;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, cfg};

  rx.handle_packet(f.data(0, 1460));
  rx.handle_packet(f.data(1460, 1460));
  f.sim.run();
  // One ACK for two segments.
  ASSERT_EQ(f.ack_log.acks.size(), 1u);
  EXPECT_EQ(f.ack_log.acks[0].tcp.ack, 2920);
}

TEST(TcpReceiver, DelayedAckTimerFlushesSingleSegment) {
  ReceiverFixture f;
  TcpConfig cfg;
  cfg.delayed_ack = true;
  cfg.ack_every_n_segments = 2;
  cfg.delayed_ack_timeout = 500_us;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, cfg};

  rx.handle_packet(f.data(0, 1460));
  f.sim.run();  // timer fires at 500 us
  ASSERT_EQ(f.ack_log.acks.size(), 1u);
  EXPECT_EQ(f.ack_log.acks[0].tcp.ack, 1460);
}

TEST(TcpReceiver, DctcpCeStateChangeForcesImmediateAck) {
  // RFC 8257 §3.2: on a CE transition with segments pending, emit an
  // immediate ACK carrying the *old* ECE state.
  ReceiverFixture f;
  TcpConfig cfg;
  cfg.delayed_ack = true;
  cfg.ack_every_n_segments = 4;  // would otherwise coalesce all three
  cfg.delayed_ack_timeout = 10_ms;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, cfg};

  rx.handle_packet(f.data(0, 1460, /*ce=*/false));
  rx.handle_packet(f.data(1460, 1460, /*ce=*/true));  // CE flips: flush
  f.sim.run_until(1_ms);
  ASSERT_GE(f.ack_log.acks.size(), 1u);
  EXPECT_EQ(f.ack_log.acks[0].tcp.ack, 1460);
  EXPECT_FALSE(f.ack_log.acks[0].tcp.ece);  // old state

  rx.handle_packet(f.data(2920, 1460, /*ce=*/true));
  rx.handle_packet(f.data(4380, 1460, /*ce=*/true));
  rx.handle_packet(f.data(5840, 1460, /*ce=*/true));
  f.sim.run_until(2_ms);
  // ack_every_n reached (4 pending CE segments): coalesced ACK with ECE set.
  ASSERT_GE(f.ack_log.acks.size(), 2u);
  EXPECT_TRUE(f.ack_log.acks[1].tcp.ece);
  EXPECT_EQ(f.ack_log.acks[1].tcp.ack, 7300);
}

TEST(TcpReceiver, IgnoresPureAcks) {
  ReceiverFixture f;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, immediate_ack_config()};
  rx.handle_packet(net::make_ack_packet(f.peer.id(), f.local.id(), kFlow, 999, false));
  f.sim.run();
  EXPECT_EQ(rx.rcv_nxt(), 0);
  EXPECT_TRUE(f.ack_log.acks.empty());
  EXPECT_EQ(rx.stats().data_packets_received, 0);
}

}  // namespace
}  // namespace incast::tcp
