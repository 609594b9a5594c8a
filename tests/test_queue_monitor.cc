// Tests for the QueueMonitor (time series + windowed watermarks).
#include "telemetry/queue_monitor.h"

#include <gtest/gtest.h>

#include "net/packet_pool.h"

namespace incast::telemetry {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

// Queues hold handles; every test packet comes from this pool.
net::PacketPool& packets() {
  static net::PacketPool pool;
  return pool;
}

net::Packet* pkt() { return packets().acquire(net::make_data_packet(0, 1, 1, 0, 1460)); }

TEST(QueueMonitor, SamplesAtRequestedPeriod) {
  Simulator sim;
  net::DropTailQueue q{{.capacity_packets = 100, .ecn_threshold_packets = 0}};
  QueueMonitor mon{sim, q, {.sample_every = 10_us, .watermark_window = Time::zero()}};
  mon.start(100_us);
  sim.run();

  // Samples at 0, 10, ..., 100 us.
  ASSERT_EQ(mon.samples().size(), 11u);
  EXPECT_EQ(mon.samples()[0].at, Time::zero());
  EXPECT_EQ(mon.samples()[10].at, 100_us);
  EXPECT_TRUE(mon.watermarks().empty());
}

TEST(QueueMonitor, SamplesReflectOccupancy) {
  Simulator sim;
  net::DropTailQueue q{{.capacity_packets = 100, .ecn_threshold_packets = 0}};
  QueueMonitor mon{sim, q, {.sample_every = 10_us, .watermark_window = Time::zero()}};
  mon.start(50_us);

  sim.schedule_at(15_us, [&] {
    (void)q.enqueue(pkt());
    (void)q.enqueue(pkt());
  });
  sim.schedule_at(35_us, [&] { (void)q.dequeue(); });
  sim.run();

  EXPECT_EQ(mon.samples()[1].packets, 0);  // t=10us
  EXPECT_EQ(mon.samples()[2].packets, 2);  // t=20us
  EXPECT_EQ(mon.samples()[4].packets, 1);  // t=40us
}

TEST(QueueMonitor, WatermarksCapturePeakWithinWindow) {
  Simulator sim;
  net::DropTailQueue q{{.capacity_packets = 100, .ecn_threshold_packets = 0}};
  QueueMonitor mon{sim, q, {.sample_every = Time::zero(), .watermark_window = 1_ms}};
  mon.start(3_ms);

  // Spike to 5 packets inside window 0, then drain fully.
  sim.schedule_at(200_us, [&] {
    for (int i = 0; i < 5; ++i) (void)q.enqueue(pkt());
  });
  sim.schedule_at(400_us, [&] {
    while (q.dequeue() != nullptr) {
    }
  });
  // Window 2: a smaller spike that persists.
  sim.schedule_at(Time::milliseconds(2.5), [&] {
    (void)q.enqueue(pkt());
    (void)q.enqueue(pkt());
  });
  sim.run();

  ASSERT_EQ(mon.watermarks().size(), 3u);
  EXPECT_EQ(mon.watermarks()[0], 5);  // the transient spike was captured
  EXPECT_EQ(mon.watermarks()[1], 0);
  EXPECT_EQ(mon.watermarks()[2], 2);
}

TEST(QueueMonitor, DropsAreCumulativeAtWindowEnds) {
  Simulator sim;
  net::DropTailQueue q{{.capacity_packets = 1, .ecn_threshold_packets = 0}};
  QueueMonitor mon{sim, q, {.sample_every = Time::zero(), .watermark_window = 1_ms}};
  mon.start(2_ms);

  sim.schedule_at(100_us, [&] {
    (void)q.enqueue(pkt());
    (void)q.enqueue(pkt());  // dropped
    (void)q.enqueue(pkt());  // dropped
  });
  sim.schedule_at(Time::milliseconds(1.5), [&] {
    (void)q.enqueue(pkt());  // dropped (still full)
  });
  sim.run();

  ASSERT_EQ(mon.drops_at_window_end().size(), 2u);
  EXPECT_EQ(mon.drops_at_window_end()[0], 2);
  EXPECT_EQ(mon.drops_at_window_end()[1], 3);
}

TEST(QueueMonitor, BothModesSimultaneously) {
  Simulator sim;
  net::DropTailQueue q{{.capacity_packets = 100, .ecn_threshold_packets = 0}};
  QueueMonitor mon{sim, q, {.sample_every = 100_us, .watermark_window = 1_ms}};
  mon.start(2_ms);
  sim.run();
  EXPECT_EQ(mon.samples().size(), 21u);
  EXPECT_EQ(mon.watermarks().size(), 2u);
}

}  // namespace
}  // namespace incast::telemetry
