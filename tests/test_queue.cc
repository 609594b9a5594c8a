// Tests for DropTailQueue: FIFO order, tail drop, ECN marking, watermarks.
#include "net/queue.h"

#include <gtest/gtest.h>

#include "net/packet_pool.h"

namespace incast::net {
namespace {

// Queues hold handles; every test packet comes from this pool.
PacketPool& pool() {
  static PacketPool packets;
  return packets;
}

Packet* data_packet(std::int64_t seq = 0) {
  return pool().acquire(make_data_packet(1, 2, 1, seq, 1460));
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q{{.capacity_packets = 10, .ecn_threshold_packets = 0}};
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.enqueue(data_packet(i * 1460)));
  for (int i = 0; i < 3; ++i) {
    const auto p = q.dequeue();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->tcp.seq, i * 1460);
  }
  EXPECT_EQ(q.dequeue(), nullptr);
}

TEST(DropTailQueue, TailDropAtCapacity) {
  DropTailQueue q{{.capacity_packets = 2, .ecn_threshold_packets = 0}};
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_FALSE(q.enqueue(data_packet()));
  EXPECT_EQ(q.packets(), 2);
  EXPECT_EQ(q.stats().dropped_packets, 1);
  EXPECT_EQ(q.stats().dropped_bytes, 1500);
}

TEST(DropTailQueue, DropFreesSlotAfterDequeue) {
  DropTailQueue q{{.capacity_packets = 1, .ecn_threshold_packets = 0}};
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_FALSE(q.enqueue(data_packet()));
  (void)q.dequeue();
  EXPECT_TRUE(q.enqueue(data_packet()));
}

TEST(DropTailQueue, EcnMarksWhenOccupancyAtThreshold) {
  DropTailQueue q{{.capacity_packets = 100, .ecn_threshold_packets = 3}};
  // Packets 1-3 arrive with occupancy 0,1,2 -> unmarked.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(q.enqueue(data_packet()));
  }
  // Packet 4 arrives with occupancy 3 >= K -> marked CE.
  EXPECT_TRUE(q.enqueue(data_packet()));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q.dequeue()->ecn, Ecn::kEct0);
  }
  EXPECT_EQ(q.dequeue()->ecn, Ecn::kCe);
  EXPECT_EQ(q.stats().ecn_marked_packets, 1);
}

TEST(DropTailQueue, EcnDisabledNeverMarks) {
  DropTailQueue q{{.capacity_packets = 100, .ecn_threshold_packets = 0}};
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_EQ(q.stats().ecn_marked_packets, 0);
  while (auto p = q.dequeue()) EXPECT_NE(p->ecn, Ecn::kCe);
}

TEST(DropTailQueue, NonEctPacketsAreNotMarked) {
  DropTailQueue q{{.capacity_packets = 100, .ecn_threshold_packets = 1}};
  EXPECT_TRUE(q.enqueue(data_packet()));
  Packet ack = make_ack_packet(1, 2, 1, 0, false);
  EXPECT_TRUE(q.enqueue(pool().acquire(ack)));  // occupancy 1 >= K but NotEct
  (void)q.dequeue();
  EXPECT_EQ(q.dequeue()->ecn, Ecn::kNotEct);
  EXPECT_EQ(q.stats().ecn_marked_packets, 0);
}

TEST(DropTailQueue, BytesTracked) {
  DropTailQueue q{{.capacity_packets = 10, .ecn_threshold_packets = 0}};
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_EQ(q.bytes(), 1500);
  EXPECT_TRUE(q.enqueue(pool().acquire(make_ack_packet(1, 2, 1, 0, false))));
  EXPECT_EQ(q.bytes(), 1540);
  (void)q.dequeue();
  EXPECT_EQ(q.bytes(), 40);
}

TEST(DropTailQueue, WatermarkTracksPeakSinceLastRead) {
  DropTailQueue q{{.capacity_packets = 10, .ecn_threshold_packets = 0}};
  for (int i = 0; i < 5; ++i) (void)q.enqueue(data_packet());
  for (int i = 0; i < 4; ++i) (void)q.dequeue();
  EXPECT_EQ(q.peak_packets(), 5);
  EXPECT_EQ(q.take_watermark(), 5);
  // After reading, the watermark restarts from the current occupancy (1).
  EXPECT_EQ(q.peak_packets(), 1);
  (void)q.enqueue(data_packet());
  EXPECT_EQ(q.take_watermark(), 2);
}

TEST(DropTailQueue, StatsCountEnqueuesAndDequeues) {
  DropTailQueue q{{.capacity_packets = 2, .ecn_threshold_packets = 0}};
  (void)q.enqueue(data_packet());
  (void)q.enqueue(data_packet());
  (void)q.enqueue(data_packet());  // dropped
  (void)q.dequeue();
  EXPECT_EQ(q.stats().enqueued_packets, 2);
  EXPECT_EQ(q.stats().dropped_packets, 1);
  EXPECT_EQ(q.stats().dequeued_packets, 1);
  EXPECT_EQ(q.stats().dequeued_bytes, 1500);
}

TEST(DropTailQueue, ByteCapacityLimitsMixedSizes) {
  // 10,000-packet slot budget but only 5 KB of memory: three MTU frames
  // fit, the fourth tail-drops on bytes.
  DropTailQueue q{{.capacity_packets = 10'000, .capacity_bytes = 5'000,
                   .ecn_threshold_packets = 0}};
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_FALSE(q.enqueue(data_packet()));  // 6000 > 5000
  // Small packets still fit in the remaining bytes.
  EXPECT_TRUE(q.enqueue(pool().acquire(make_ack_packet(1, 2, 1, 0, false))));
  EXPECT_EQ(q.stats().dropped_packets, 1);
}

TEST(DropTailQueue, ByteCapacityDisabledByDefault) {
  DropTailQueue q{{.capacity_packets = 2, .ecn_threshold_packets = 0}};
  EXPECT_EQ(q.config().capacity_bytes, 0);
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_TRUE(q.enqueue(data_packet()));
  EXPECT_FALSE(q.enqueue(data_packet()));  // packet cap still applies
}

// Property sweep: occupancy never exceeds capacity for any capacity.
class QueueCapacityProperty : public ::testing::TestWithParam<int> {};

TEST_P(QueueCapacityProperty, OccupancyNeverExceedsCapacity) {
  const int capacity = GetParam();
  DropTailQueue q{{.capacity_packets = capacity, .ecn_threshold_packets = 5}};
  for (int i = 0; i < capacity * 3 + 7; ++i) {
    (void)q.enqueue(data_packet());
    ASSERT_LE(q.packets(), capacity);
  }
  EXPECT_EQ(q.packets(), capacity);
  EXPECT_EQ(q.stats().dropped_packets, capacity * 2 + 7);
}

INSTANTIATE_TEST_SUITE_P(Capacities, QueueCapacityProperty,
                         ::testing::Values(1, 2, 3, 10, 65, 1333));

}  // namespace
}  // namespace incast::net
