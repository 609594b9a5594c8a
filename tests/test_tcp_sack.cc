// Tests for SACK (RFC 2018 blocks, RFC 6675-lite scoreboard) and limited
// transmit (RFC 3042).
#include <gtest/gtest.h>

#include <vector>

#include "net/topology.h"
#include "tcp/tcp_connection.h"

namespace incast::tcp {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

constexpr net::FlowId kFlow = 1;
constexpr std::int64_t kMss = 1460;

TcpConfig sack_config() {
  TcpConfig c;
  c.cc = CcAlgorithm::kReno;
  c.sack_enabled = true;
  c.rtt.min_rto = 1_s;  // timeouts would fail the fast-path tests
  c.rtt.initial_rto = 1_s;
  return c;
}

// --- Receiver-side SACK generation ----------------------------------------

struct ReceiverFixture {
  Simulator sim;
  net::Host peer;
  net::Host local;

  struct AckLog final : public net::PacketHandler {
    void handle_packet(const net::Packet& p) override { acks.push_back(p); }
    std::vector<net::Packet> acks;
  };
  AckLog ack_log;

  ReceiverFixture() : peer{sim, 0, "peer"}, local{sim, 1, "local"} {
    const net::DropTailQueue::Config q{.capacity_packets = 1000, .ecn_threshold_packets = 0};
    peer.add_nic(sim::Bandwidth::gigabits_per_second(10), 1_us, q);
    local.add_nic(sim::Bandwidth::gigabits_per_second(10), 1_us, q);
    net::connect_duplex(peer, 0, local, 0);
    peer.register_flow(kFlow, &ack_log);
  }

  net::Packet data(std::int64_t segment_index) {
    return net::make_data_packet(peer.id(), local.id(), kFlow, segment_index * kMss, kMss);
  }
};

TEST(SackReceiver, DupAckCarriesTheOutOfOrderBlock) {
  ReceiverFixture f;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, sack_config()};
  rx.handle_packet(f.data(0));
  rx.handle_packet(f.data(2));  // gap at segment 1
  f.sim.run();

  ASSERT_EQ(f.ack_log.acks.size(), 2u);
  const auto& dup = f.ack_log.acks[1];
  EXPECT_EQ(dup.tcp.ack, kMss);
  ASSERT_EQ(dup.tcp.num_sack, 1);
  EXPECT_EQ(dup.tcp.sack[0], (net::SackBlock{2 * kMss, 3 * kMss}));
}

TEST(SackReceiver, MostRecentBlockReportedFirst) {
  ReceiverFixture f;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, sack_config()};
  rx.handle_packet(f.data(0));
  rx.handle_packet(f.data(2));  // block A
  rx.handle_packet(f.data(4));  // block B (most recent)
  f.sim.run();

  const auto& dup = f.ack_log.acks.back();
  ASSERT_EQ(dup.tcp.num_sack, 2);
  EXPECT_EQ(dup.tcp.sack[0], (net::SackBlock{4 * kMss, 5 * kMss}));
  EXPECT_EQ(dup.tcp.sack[1], (net::SackBlock{2 * kMss, 3 * kMss}));
}

TEST(SackReceiver, AdjacentSegmentsMergeIntoOneBlock) {
  ReceiverFixture f;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, sack_config()};
  rx.handle_packet(f.data(0));
  rx.handle_packet(f.data(2));
  rx.handle_packet(f.data(3));
  f.sim.run();

  const auto& dup = f.ack_log.acks.back();
  ASSERT_EQ(dup.tcp.num_sack, 1);
  EXPECT_EQ(dup.tcp.sack[0], (net::SackBlock{2 * kMss, 4 * kMss}));
}

TEST(SackReceiver, AtMostThreeBlocks) {
  ReceiverFixture f;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, sack_config()};
  rx.handle_packet(f.data(0));
  for (const int seg : {2, 4, 6, 8, 10}) rx.handle_packet(f.data(seg));
  f.sim.run();

  const auto& dup = f.ack_log.acks.back();
  EXPECT_EQ(dup.tcp.num_sack, net::kMaxSackBlocks);
  // Most recent first: 10, 8, 6.
  EXPECT_EQ(dup.tcp.sack[0].start, 10 * kMss);
  EXPECT_EQ(dup.tcp.sack[1].start, 8 * kMss);
  EXPECT_EQ(dup.tcp.sack[2].start, 6 * kMss);
}

TEST(SackReceiver, DisabledProducesNoBlocks) {
  ReceiverFixture f;
  TcpConfig cfg = sack_config();
  cfg.sack_enabled = false;
  TcpReceiver rx{f.sim, f.local, f.peer.id(), kFlow, cfg};
  rx.handle_packet(f.data(0));
  rx.handle_packet(f.data(2));
  f.sim.run();
  EXPECT_EQ(f.ack_log.acks.back().tcp.num_sack, 0);
}

// --- Sender-side scoreboard -------------------------------------------------

struct SenderFixture {
  Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 1}};
  TcpSender sender;

  explicit SenderFixture(const TcpConfig& cfg = sack_config())
      : sender{sim, topo.sender(0), topo.receiver(0).id(), kFlow, cfg} {}

  // Delivers a crafted ACK with SACK blocks straight to the sender.
  void ack(std::int64_t cum_ack, std::vector<net::SackBlock> blocks = {}) {
    net::Packet p = net::make_ack_packet(topo.receiver(0).id(), topo.sender(0).id(), kFlow,
                                         cum_ack, false);
    for (const auto& b : blocks) {
      ASSERT_LT(p.tcp.num_sack, net::kMaxSackBlocks);
      p.tcp.sack[p.tcp.num_sack++] = b;
    }
    sender.handle_packet(std::move(p));
  }
};

TEST(SackSender, ScoreboardTracksSackedBytes) {
  SenderFixture f;
  f.sender.add_app_data(20 * kMss);  // IW10: 10 segments go out
  f.sim.run_until(10_us);
  ASSERT_GE(f.sender.snd_nxt(), 10 * kMss);

  f.ack(0, {{2 * kMss, 3 * kMss}});
  EXPECT_EQ(f.sender.sacked_bytes(), kMss);
  // Pipe excludes the sacked segment.
  EXPECT_EQ(f.sender.pipe_bytes(), f.sender.in_flight_bytes() - kMss);

  // Overlapping and adjacent blocks merge without double counting.
  f.ack(0, {{2 * kMss, 4 * kMss}});
  f.ack(0, {{4 * kMss, 5 * kMss}});
  EXPECT_EQ(f.sender.sacked_bytes(), 3 * kMss);
}

TEST(SackSender, CumulativeAckDropsCoveredRanges) {
  SenderFixture f;
  f.sender.add_app_data(20 * kMss);
  f.sim.run_until(10_us);

  f.ack(0, {{2 * kMss, 5 * kMss}});
  EXPECT_EQ(f.sender.sacked_bytes(), 3 * kMss);
  f.ack(3 * kMss);  // cumulative ACK past part of the sacked range
  EXPECT_EQ(f.sender.sacked_bytes(), 2 * kMss);
  f.ack(10 * kMss);
  EXPECT_EQ(f.sender.sacked_bytes(), 0);
}

TEST(SackSender, BlocksOutsideFlightAreIgnored) {
  SenderFixture f;
  f.sender.add_app_data(20 * kMss);
  f.sim.run_until(10_us);
  f.ack(5 * kMss);  // advance snd_una
  // Entirely below snd_una and entirely above snd_nxt: both ignored.
  f.ack(5 * kMss, {{0, 5 * kMss}});
  f.ack(5 * kMss, {{100 * kMss, 200 * kMss}});
  EXPECT_EQ(f.sender.sacked_bytes(), 0);
  // A block straddling snd_una is clamped to the in-flight part.
  f.ack(5 * kMss, {{4 * kMss, 7 * kMss}});
  EXPECT_EQ(f.sender.sacked_bytes(), 2 * kMss);
}

TEST(SackSender, SackEvidenceTriggersEarlyRecovery) {
  SenderFixture f;
  f.sender.add_app_data(20 * kMss);
  f.sim.run_until(10_us);

  // One duplicate ACK whose SACK already covers 3 segments: RFC 6675
  // enters recovery without waiting for three dupacks.
  f.ack(0, {{kMss, 4 * kMss}});
  EXPECT_TRUE(f.sender.in_recovery());
  EXPECT_EQ(f.sender.stats().fast_retransmits, 1);
  EXPECT_GE(f.sender.stats().retransmitted_packets, 1);
}

TEST(SackSender, RetransmitsTheHoleNotTheSackedData) {
  SenderFixture f;
  f.sender.add_app_data(20 * kMss);
  f.sim.run_until(10_us);

  // Segment 0 arrived; segment 1 lost; 2-4 sacked.
  f.ack(kMss, {{2 * kMss, 5 * kMss}});
  f.ack(kMss, {{2 * kMss, 5 * kMss}});
  f.ack(kMss, {{2 * kMss, 5 * kMss}});
  ASSERT_TRUE(f.sender.in_recovery());

  // The retransmission must target the hole [1*kMss, 2*kMss): capture it
  // by draining the network and checking what arrives at the receiver...
  // simpler: the retransmit accounting says exactly one segment was
  // retransmitted, and the hole cursor moved past it, so a partial ACK at
  // 2*kMss (the hole filled) must NOT produce another retransmission of
  // sacked data.
  const std::int64_t retx_after_entry = f.sender.stats().retransmitted_packets;
  EXPECT_GE(retx_after_entry, 1);
  f.ack(5 * kMss);  // hole filled: cumulative ACK jumps past sacked range
  EXPECT_EQ(f.sender.stats().retransmitted_packets, retx_after_entry);
}

TEST(SackSender, TimeoutClearsScoreboard) {
  TcpConfig cfg = sack_config();
  cfg.rtt.min_rto = 1_ms;
  cfg.rtt.initial_rto = 1_ms;
  SenderFixture f{cfg};
  f.sender.add_app_data(20 * kMss);
  f.sim.run_until(10_us);
  f.ack(0, {{2 * kMss, 5 * kMss}});
  EXPECT_GT(f.sender.sacked_bytes(), 0);

  f.sim.run_until(5_ms);  // RTO fires (ACKs never arrive)
  EXPECT_GT(f.sender.stats().timeouts, 0);
  EXPECT_EQ(f.sender.sacked_bytes(), 0);
}

// --- Limited transmit --------------------------------------------------------

TEST(LimitedTransmit, FirstTwoDupacksReleaseNewSegments) {
  TcpConfig cfg = sack_config();
  cfg.sack_enabled = false;  // isolate RFC 3042 from SACK early entry
  cfg.limited_transmit = true;
  SenderFixture f{cfg};
  f.sender.add_app_data(40 * kMss);
  f.sim.run_until(10_us);
  const std::int64_t nxt_before = f.sender.snd_nxt();

  f.ack(0);  // dupack 1
  f.ack(0);  // dupack 2
  EXPECT_EQ(f.sender.stats().limited_transmits, 2);
  EXPECT_EQ(f.sender.snd_nxt(), nxt_before + 2 * kMss);
  EXPECT_FALSE(f.sender.in_recovery());

  f.ack(0);  // dupack 3: recovery, no further limited transmit
  EXPECT_TRUE(f.sender.in_recovery());
  EXPECT_EQ(f.sender.stats().limited_transmits, 2);
}

TEST(LimitedTransmit, DisabledSendsNothingOnDupacks) {
  TcpConfig cfg = sack_config();
  cfg.sack_enabled = false;
  cfg.limited_transmit = false;
  SenderFixture f{cfg};
  f.sender.add_app_data(40 * kMss);
  f.sim.run_until(10_us);
  const std::int64_t nxt_before = f.sender.snd_nxt();
  f.ack(0);
  f.ack(0);
  EXPECT_EQ(f.sender.stats().limited_transmits, 0);
  EXPECT_EQ(f.sender.snd_nxt(), nxt_before);
}

// --- End-to-end: SACK avoids timeouts that NewReno needs ---------------------

TEST(SackEndToEnd, SackRecoversBurstLossWithoutRto) {
  // A shallow queue drops a clump of segments from one window. With SACK,
  // recovery fills all holes via fast retransmission; without it, NewReno
  // retransmits one hole per RTT and may run out of dupacks, falling back
  // to the RTO.
  auto run = [](bool sack) {
    Simulator sim;
    net::DumbbellConfig topo_cfg;
    topo_cfg.num_senders = 1;
    topo_cfg.switch_queue.capacity_packets = 12;
    topo_cfg.switch_queue.ecn_threshold_packets = 0;
    topo_cfg.receiver_link = sim::Bandwidth::gigabits_per_second(1);
    net::Dumbbell topo{sim, topo_cfg};
    TcpConfig cfg;
    cfg.cc = CcAlgorithm::kReno;
    cfg.sack_enabled = sack;
    cfg.rtt.min_rto = 50_ms;
    cfg.rtt.initial_rto = 50_ms;
    TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};
    conn.sender().add_app_data(3'000'000);
    sim.run_until(30_s);
    EXPECT_TRUE(conn.sender().all_acked());
    return std::pair{conn.sender().stats().timeouts,
                     conn.sender().stats().sack_blocks_processed};
  };

  const auto [timeouts_sack, blocks_sack] = run(true);
  const auto [timeouts_newreno, blocks_newreno] = run(false);
  EXPECT_GT(blocks_sack, 0);
  EXPECT_EQ(blocks_newreno, 0);
  EXPECT_LE(timeouts_sack, timeouts_newreno);
}

}  // namespace
}  // namespace incast::tcp
