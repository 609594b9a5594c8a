// Tests for the SharedBufferPool (Dynamic Threshold buffer sharing).
#include "net/shared_buffer.h"

#include <gtest/gtest.h>

#include "net/packet_pool.h"
#include "net/queue.h"

namespace incast::net {
namespace {

// Queues hold handles; every test packet comes from this pool.
PacketPool& packets() {
  static PacketPool pool;
  return pool;
}

TEST(SharedBufferPool, ReserveAndRelease) {
  SharedBufferPool pool{{.total_bytes = 10'000, .alpha = 1.0}};
  EXPECT_TRUE(pool.try_reserve(4'000, 0));
  EXPECT_EQ(pool.used_bytes(), 4'000);
  EXPECT_EQ(pool.free_bytes(), 6'000);
  pool.release(4'000);
  EXPECT_EQ(pool.used_bytes(), 0);
}

TEST(SharedBufferPool, RejectsWhenPoolExhausted) {
  SharedBufferPool pool{{.total_bytes = 3'000, .alpha = 10.0}};
  EXPECT_TRUE(pool.try_reserve(1'500, 0));
  EXPECT_TRUE(pool.try_reserve(1'500, 1'500));
  EXPECT_FALSE(pool.try_reserve(1'500, 3'000));
  EXPECT_EQ(pool.used_bytes(), 3'000);
}

TEST(SharedBufferPool, DynamicThresholdCapsQueue) {
  // alpha = 1: a queue may hold at most as much as remains free. With
  // 10 KB total and the queue already holding 5 KB, free = 5 KB, so the
  // queue (at 5 KB) may grow only to ~5 KB more.
  SharedBufferPool pool{{.total_bytes = 10'000, .alpha = 1.0}};
  std::int64_t queue_bytes = 0;
  while (pool.try_reserve(1'000, queue_bytes)) {
    queue_bytes += 1'000;
  }
  // cap(q) = alpha * (total - used): growth stops when q > free.
  EXPECT_EQ(queue_bytes, 5'000);
}

TEST(SharedBufferPool, SmallAlphaIsStricter) {
  SharedBufferPool pool{{.total_bytes = 10'000, .alpha = 0.25}};
  std::int64_t queue_bytes = 0;
  while (pool.try_reserve(500, queue_bytes)) {
    queue_bytes += 500;
  }
  // q <= 0.25 * (10'000 - q)  =>  q <= 2'000.
  EXPECT_EQ(queue_bytes, 2'000);
}

TEST(SharedBufferPool, ExternalUsageShrinksHeadroom) {
  SharedBufferPool pool{{.total_bytes = 10'000, .alpha = 1.0}};
  pool.set_external_usage(8'000);
  EXPECT_EQ(pool.free_bytes(), 2'000);
  std::int64_t queue_bytes = 0;
  while (pool.try_reserve(500, queue_bytes)) {
    queue_bytes += 500;
  }
  EXPECT_EQ(queue_bytes, 1'000);
  // Releasing the external pressure restores capacity.
  pool.set_external_usage(0);
  EXPECT_EQ(pool.free_bytes(), 10'000 - queue_bytes);
  EXPECT_TRUE(pool.try_reserve(500, queue_bytes));
}

TEST(SharedBufferPool, ExternalUsageIsLevelNotDelta) {
  SharedBufferPool pool{{.total_bytes = 10'000, .alpha = 1.0}};
  pool.set_external_usage(4'000);
  pool.set_external_usage(4'000);  // idempotent
  EXPECT_EQ(pool.used_bytes(), 4'000);
  pool.set_external_usage(6'000);
  EXPECT_EQ(pool.used_bytes(), 6'000);
  pool.set_external_usage(0);
  EXPECT_EQ(pool.used_bytes(), 0);
}

TEST(SharedBufferPool, QueueIntegrationDropsWhenPoolRejects) {
  // A queue with a huge per-queue cap still tail-drops when the pool's
  // dynamic threshold kicks in.
  SharedBufferPool pool{{.total_bytes = 6'000, .alpha = 1.0}};
  DropTailQueue q{{.capacity_packets = 1'000, .ecn_threshold_packets = 0}};
  q.attach_pool(&pool);

  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (q.enqueue(packets().acquire(make_data_packet(1, 2, 1, 0, 1460)))) ++admitted;
  }
  // cap = total/2 at alpha=1: 3'000 B = 2 packets.
  EXPECT_EQ(admitted, 2);
  EXPECT_EQ(q.stats().dropped_packets, 8);
  EXPECT_EQ(pool.used_bytes(), 2 * 1500);

  // Dequeue releases the pool memory.
  while (q.dequeue() != nullptr) {
  }
  EXPECT_EQ(pool.used_bytes(), 0);
}

TEST(SharedBufferPool, QueuePerQueueCapDropDoesNotLeakPoolMemory) {
  SharedBufferPool pool{{.total_bytes = 1'000'000, .alpha = 1.0}};
  DropTailQueue q{{.capacity_packets = 2, .ecn_threshold_packets = 0}};
  q.attach_pool(&pool);
  for (int i = 0; i < 5; ++i) {
    (void)q.enqueue(packets().acquire(make_data_packet(1, 2, 1, 0, 1460)));
  }
  EXPECT_EQ(q.packets(), 2);
  // Only the two admitted packets hold pool memory.
  EXPECT_EQ(pool.used_bytes(), 2 * 1500);
}

}  // namespace
}  // namespace incast::net
