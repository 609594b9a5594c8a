// Tests for the Simulator event loop.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <vector>

namespace incast::sim {
namespace {

using namespace incast::sim::literals;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, RunAdvancesTimeToEachEvent) {
  Simulator sim;
  std::vector<Time> seen;
  sim.schedule_at(10_us, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(5_us, [&] { seen.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 5_us);
  EXPECT_EQ(seen[1], 10_us);
  EXPECT_EQ(sim.now(), 10_us);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time fired_at;
  sim.schedule_at(5_us, [&] {
    sim.schedule_in(3_us, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 8_us);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(1_us, recurse);
  };
  sim.schedule_in(1_us, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), Time::microseconds(100));
}

TEST(Simulator, RunUntilStopsAtDeadlineAndSetsNow) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1_ms, [&] { ++fired; });
  sim.schedule_at(3_ms, [&] { ++fired; });
  sim.run_until(2_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2_ms);
  EXPECT_EQ(sim.events_pending(), 1u);
  // Resume picks up the remaining event.
  sim.run_until(5_ms);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 5_ms);
}

TEST(Simulator, RunUntilIncludesEventsAtDeadline) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(2_ms, [&] { fired = true; });
  sim.run_until(2_ms);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1_us, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2_us, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_pending(), 1u);
  // A subsequent run resumes.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelledEventDoesNotFire) {
  struct Flag {
    explicit Flag(Simulator& sim) : timer{sim, this, Timer::method<&Flag::fire>} {}
    void fire() { fired = true; }
    bool fired{false};
    Timer timer;
  };
  Simulator sim;
  Flag flag{sim};
  flag.timer.arm_at(1_us);
  flag.timer.disarm();
  sim.run();
  EXPECT_FALSE(flag.fired);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, SameTimeEventsFifoAcrossNesting) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1_us, [&] {
    order.push_back(1);
    // Scheduled at the *current* time: runs after already-queued events at
    // the same timestamp.
    sim.schedule_at(1_us, [&] { order.push_back(3); });
  });
  sim.schedule_at(1_us, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.run_until(7_ms);
  EXPECT_EQ(sim.now(), 7_ms);
}

TEST(Simulator, ProfilingTimesOnlyCategoriesThatRanWhileEnabled) {
  // Each callback spins until the steady clock moves, so a timed dispatch
  // never rounds to zero nanoseconds.
  const auto spin = [] {
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() == start) {
    }
  };
  Simulator sim;
  EXPECT_FALSE(sim.profiling());
  sim.schedule_at(1_us, spin, EventCategory::kFault);  // runs unprofiled
  sim.run();
  for (const double ns : sim.wall_ns_by_category()) EXPECT_EQ(ns, 0.0);

  sim.set_profiling(true);
  sim.schedule_at(2_us, spin, EventCategory::kNet);
  sim.schedule_at(3_us, spin, EventCategory::kNet);
  sim.schedule_at(4_us, spin, EventCategory::kTcp);
  sim.run();
  const auto& wall = sim.wall_ns_by_category();
  for (std::size_t c = 0; c < kNumEventCategories; ++c) {
    const auto category = static_cast<EventCategory>(c);
    if (category == EventCategory::kNet || category == EventCategory::kTcp) {
      EXPECT_GT(wall[c], 0.0) << to_string(category);
    } else {
      EXPECT_EQ(wall[c], 0.0) << to_string(category);
    }
  }
  EXPECT_EQ(sim.events_by_category()[static_cast<std::size_t>(EventCategory::kFault)], 1u);
}

}  // namespace
}  // namespace incast::sim
