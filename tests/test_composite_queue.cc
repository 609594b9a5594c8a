// Trimming-discipline (NDP packet trimming) tests: trim-on-overflow, the
// strict-priority header queue, CE marking of trimmed headers, and the
// end-to-end trim -> NACK -> immediate-retransmit recovery path.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/packet_pool.h"
#include "net/queue.h"
#include "net/topology.h"
#include "tcp/tcp_connection.h"

namespace incast::net {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

// Queues hold handles; every test packet comes from this pool.
PacketPool& pool() {
  static PacketPool packets;
  return packets;
}

Packet* data_packet(std::int64_t seq) {
  return pool().acquire(make_data_packet(1, 2, 1, seq, 1460));
}

DropTailQueue::Config trim_config(std::int64_t capacity) {
  return DropTailQueue::Config{.capacity_packets = capacity,
                               .ecn_threshold_packets = 0,
                               .discipline = QueueDiscipline::kTrimming};
}

TEST(CompositeQueue, TrimsInsteadOfDroppingWhenDataRingIsFull) {
  DropTailQueue q{trim_config(2)};
  EXPECT_TRUE(q.enqueue(data_packet(0)).admitted());
  EXPECT_TRUE(q.enqueue(data_packet(1460)).admitted());
  // Third arrival exceeds capacity: trimmed to a 64 B header, not dropped.
  EXPECT_TRUE(q.enqueue(data_packet(2920)).admitted());
  EXPECT_EQ(q.data_packets(), 2);
  EXPECT_EQ(q.header_packets(), 1);
  EXPECT_EQ(q.stats().trimmed_packets, 1);
  EXPECT_EQ(q.stats().trimmed_bytes, 1500 - 64);
  EXPECT_EQ(q.stats().dropped_packets, 0);
  // Totals cover both rings.
  EXPECT_EQ(q.packets(), 3);
  EXPECT_EQ(q.bytes(), 2 * 1500 + 64);
}

TEST(CompositeQueue, HeadersDequeueBeforeQueuedData) {
  DropTailQueue q{trim_config(2)};
  EXPECT_TRUE(q.enqueue(data_packet(0)).admitted());
  EXPECT_TRUE(q.enqueue(data_packet(1460)).admitted());
  EXPECT_TRUE(q.enqueue(data_packet(2920)).admitted());  // trimmed

  // Strict priority: the header queued last comes out first.
  auto first = q.dequeue();
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->trimmed);
  EXPECT_EQ(first->size_bytes, 64);
  EXPECT_EQ(first->payload_bytes, 0);
  EXPECT_EQ(first->tcp.seq, 2920);

  // Then the data ring drains in FIFO order.
  auto second = q.dequeue();
  ASSERT_NE(second, nullptr);
  EXPECT_FALSE(second->trimmed);
  EXPECT_EQ(second->tcp.seq, 0);
  auto third = q.dequeue();
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->tcp.seq, 1460);
  EXPECT_EQ(q.dequeue(), nullptr);
}

TEST(CompositeQueue, TrimmedEctPacketIsCeMarked) {
  DropTailQueue q{trim_config(1)};
  EXPECT_TRUE(q.enqueue(data_packet(0)).admitted());
  Packet* ect = data_packet(1460);
  ect->ecn = Ecn::kEct0;
  EXPECT_TRUE(q.enqueue(ect).admitted());
  auto header = q.dequeue();
  ASSERT_NE(header, nullptr);
  EXPECT_TRUE(header->trimmed);
  // Trimming is itself a congestion signal; ECT headers carry it as CE.
  EXPECT_EQ(header->ecn, Ecn::kCe);
}

TEST(CompositeQueue, TrimmedNonEctPacketStaysUnmarked) {
  DropTailQueue q{trim_config(1)};
  EXPECT_TRUE(q.enqueue(data_packet(0)).admitted());
  // make_data_packet defaults to ECT0 (DCTCP); force a non-ECN sender.
  Packet* not_ect = data_packet(1460);
  not_ect->ecn = Ecn::kNotEct;
  EXPECT_TRUE(q.enqueue(not_ect).admitted());
  auto header = q.dequeue();
  ASSERT_NE(header, nullptr);
  EXPECT_TRUE(header->trimmed);
  EXPECT_EQ(header->ecn, Ecn::kNotEct);
}

TEST(CompositeQueue, HeaderOnlyTrafficRidesThePriorityQueue) {
  DropTailQueue q{trim_config(10)};
  EXPECT_TRUE(q.enqueue(data_packet(0)).admitted());
  // An ACK (no payload) joins the header ring even though the data ring
  // has room — header-only traffic must never sit behind full frames.
  EXPECT_TRUE(q.enqueue(pool().acquire(make_ack_packet(2, 1, 1, 1460, false))).admitted());
  EXPECT_EQ(q.data_packets(), 1);
  EXPECT_EQ(q.header_packets(), 1);
  auto first = q.dequeue();
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->is_data());
}

TEST(CompositeQueue, HeaderQueueOverflowIsARealDrop) {
  DropTailQueue::Config cfg = trim_config(1);
  cfg.header_capacity_packets = 2;
  DropTailQueue q{cfg};
  EXPECT_TRUE(q.enqueue(pool().acquire(make_ack_packet(2, 1, 1, 0, false))).admitted());
  EXPECT_TRUE(q.enqueue(pool().acquire(make_ack_packet(2, 1, 1, 1460, false))).admitted());
  EXPECT_FALSE(q.enqueue(pool().acquire(make_ack_packet(2, 1, 1, 2920, false))).admitted());
  EXPECT_EQ(q.header_packets(), 2);
  EXPECT_EQ(q.stats().dropped_packets, 1);
}

TEST(CompositeQueue, EcnMarksOnTheDataRingBelowTheTrimPoint) {
  DropTailQueue::Config cfg = trim_config(8);
  cfg.ecn_threshold_packets = 1;
  DropTailQueue q{cfg};
  Packet* first = data_packet(0);
  first->ecn = Ecn::kEct0;
  EXPECT_TRUE(q.enqueue(first).admitted());
  Packet* second = data_packet(1460);
  second->ecn = Ecn::kEct0;
  // Occupancy 1 >= K=1 at arrival: marked, yet still queued as full data —
  // senders see ECN pressure well before payloads start getting cut.
  EXPECT_TRUE(q.enqueue(second).admitted());
  EXPECT_EQ(q.data_packets(), 2);
  EXPECT_EQ(q.stats().ecn_marked_packets, 1);
  EXPECT_EQ(q.stats().trimmed_packets, 0);
}

TEST(CompositeQueue, MakeQueueBuildsTheConfiguredDiscipline) {
  // The discipline is configuration, not a type: a full data ring trims
  // under kTrimming and tail-drops under kDropTail.
  DropTailQueue trim{trim_config(1)};
  ASSERT_TRUE(trim.trimming());
  EXPECT_TRUE(trim.enqueue(data_packet(0)).admitted());
  EXPECT_TRUE(trim.enqueue(data_packet(1460)).admitted());
  EXPECT_EQ(trim.stats().trimmed_packets, 1);
  DropTailQueue::Config plain_cfg = trim_config(1);
  plain_cfg.discipline = QueueDiscipline::kDropTail;
  DropTailQueue plain{plain_cfg};
  EXPECT_FALSE(plain.trimming());
  EXPECT_TRUE(plain.enqueue(data_packet(0)).admitted());
  Packet* refused = data_packet(1460);
  EXPECT_FALSE(plain.enqueue(refused).admitted());
  pool().release(refused);
  EXPECT_EQ(plain.stats().trimmed_packets, 0);
  EXPECT_EQ(plain.header_packets(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end recovery: trimmed segments are NACKed by the receiver and
// retransmitted immediately — loss recovery without waiting out an RTO.

TEST(TrimRecovery, NackRetransmitDeliversEverythingWithoutRto) {
  Simulator sim;
  net::DumbbellConfig cfg;
  cfg.num_senders = 6;
  // A tiny trimming queue with ECN disabled: nothing restrains the senders
  // except trims, so recovery has to carry the whole transfer.
  cfg.switch_queue = DropTailQueue::Config{.capacity_packets = 16,
                                           .ecn_threshold_packets = 0,
                                           .discipline = QueueDiscipline::kTrimming};
  net::Dumbbell topo{sim, cfg};

  tcp::TcpConfig tcp;
  tcp.cc = tcp::CcAlgorithm::kDctcp;
  tcp.rtt.min_rto = 200_ms;
  const std::int64_t per_flow = 300'000;
  std::vector<std::unique_ptr<tcp::TcpConnection>> conns;
  for (int i = 0; i < 6; ++i) {
    conns.push_back(std::make_unique<tcp::TcpConnection>(
        sim, topo.sender(i), topo.receiver(0), static_cast<FlowId>(i + 1), tcp));
    conns.back()->sender().add_app_data(per_flow);
  }
  sim.run_until(150_ms);

  std::int64_t nacks_sent = 0, nacks_received = 0, nack_retransmits = 0;
  for (const auto& c : conns) {
    EXPECT_TRUE(c->sender().all_acked());
    EXPECT_EQ(c->receiver().rcv_nxt(), per_flow);
    // Everything finished inside min_rto: recovery never leaned on the
    // retransmission timer.
    EXPECT_EQ(c->sender().stats().timeouts, 0);
    nacks_sent += c->receiver().stats().nacks_sent;
    nacks_received += c->sender().stats().nacks_received;
    nack_retransmits += c->sender().stats().nack_retransmits;
  }
  // The queue really trimmed, the receivers really NACKed, and every NACK
  // that arrived turned into an immediate retransmit.
  EXPECT_GT(topo.bottleneck_queue().stats().trimmed_packets, 0);
  EXPECT_GT(nacks_sent, 0);
  EXPECT_GT(nacks_received, 0);
  EXPECT_GT(nack_retransmits, 0);
}

}  // namespace
}  // namespace incast::net
