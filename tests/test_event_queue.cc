// Tests for the discrete-event pending set: ordering, ties, and timers
// (arm, re-arm, disarm), plus a seeded differential test of timers and
// one-shot events against an independent reference model.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace incast::sim {
namespace {

using namespace incast::sim::literals;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3_us, [&] { fired.push_back(3); });
  q.push(1_us, [&] { fired.push_back(1); });
  q.push(2_us, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimestampsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(5_us, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  ASSERT_EQ(fired.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

// A timer owner that logs its firings as `id`.
struct Probe {
  Probe(Simulator& sim, std::vector<int>& log, int id)
      : log{&log}, id{id}, timer{sim, this, Timer::method<&Probe::fire>} {}
  void fire() { log->push_back(id); }

  std::vector<int>* log;
  int id;
  Timer timer;
};

TEST(EventQueue, CancelPreventsExecution) {
  Simulator sim;
  std::vector<int> fired;
  Probe p{sim, fired, 1};
  p.timer.arm_at(1_us);
  EXPECT_EQ(sim.events_pending(), 1u);
  p.timer.disarm();
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_FALSE(p.timer.armed());
  sim.run();
  EXPECT_TRUE(fired.empty());
}

TEST(EventQueue, CancelMiddleEventOnly) {
  Simulator sim;
  std::vector<int> fired;
  Probe a{sim, fired, 1};
  Probe b{sim, fired, 2};
  Probe c{sim, fired, 3};
  a.timer.arm_at(1_us);
  b.timer.arm_at(2_us);
  c.timer.arm_at(3_us);
  b.timer.disarm();
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  // Disarming a timer that was never armed touches nothing.
  Simulator sim;
  std::vector<int> fired;
  Probe never{sim, fired, 1};
  never.timer.disarm();
  sim.schedule_at(1_us, [] {});
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_EQ(sim.peak_events_pending(), 1u);
}

TEST(EventQueue, DoubleCancelIsHarmless) {
  Simulator sim;
  std::vector<int> fired;
  Probe p{sim, fired, 1};
  p.timer.arm_at(1_us);
  sim.schedule_at(2_us, [] {});
  p.timer.disarm();
  p.timer.disarm();
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(EventQueue, CancellingAFiredIdIsATrueNoop) {
  Simulator sim;
  std::vector<int> fired;
  Probe p{sim, fired, 1};
  p.timer.arm_at(1_us);
  sim.schedule_at(2_us, [&] {
    EXPECT_FALSE(p.timer.armed());  // firing disarmed it
    p.timer.disarm();               // must not disturb accounting
    EXPECT_EQ(sim.events_pending(), 1u);
  });
  sim.schedule_at(3_us, [] {});
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  Simulator sim;
  std::vector<int> fired;
  Probe p{sim, fired, 1};
  p.timer.arm_at(1_us);
  sim.schedule_at(5_us, [] {});
  p.timer.disarm();
  EXPECT_EQ(sim.next_event_time(), 5_us);
}

TEST(EventQueue, NextTimeFollowsARearmedTimer) {
  // Re-arming later keeps the timer's one heap entry at its old time; the
  // queue must still report the new expiry as the next event.
  Simulator sim;
  std::vector<int> fired;
  Probe p{sim, fired, 1};
  p.timer.arm_at(1_us);
  p.timer.arm_at(4_us);
  sim.schedule_at(5_us, [] {});
  EXPECT_EQ(sim.next_event_time(), 4_us);
  EXPECT_EQ(sim.peak_events_pending(), 2u);
  p.timer.arm_at(7_us);
  EXPECT_EQ(sim.next_event_time(), 5_us);
}

TEST(EventQueue, NextTimeOnEmptyIsInfinity) {
  EventQueue q;
  EXPECT_TRUE(q.next_time().is_infinite());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  Simulator sim;
  std::vector<int> fired;
  Probe p{sim, fired, 1};
  EXPECT_EQ(sim.events_pending(), 0u);
  p.timer.arm_at(1_us);
  sim.schedule_at(2_us, [] {});
  EXPECT_EQ(sim.events_pending(), 2u);
  p.timer.arm_at(3_us);  // a re-arm replaces, it does not add
  EXPECT_EQ(sim.events_pending(), 2u);
  p.timer.disarm();
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(EventQueue, ReArmingOnEveryAckKeepsOneHeapEntry) {
  // The RTO pattern: every "ACK" pushes the timer later. The heap holds
  // the ACK chain's next event plus the timer's one entry, however many
  // times it is re-armed.
  Simulator sim;
  std::vector<int> fired;
  Probe rto{sim, fired, 1};
  int acks = 0;
  std::function<void()> ack = [&] {
    rto.timer.arm_in(200_ms);
    if (++acks < 1000) sim.schedule_in(10_us, [&] { ack(); });
  };
  sim.schedule_at(0_us, [&] { ack(); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 9990_us + 200_ms);
  EXPECT_EQ(sim.peak_events_pending(), 2u);
  EXPECT_EQ(sim.events_processed(), 1001u);
}

TEST(EventQueue, DestroyingAFiledTimerWithdrawsIt) {
  Simulator sim;
  std::vector<int> fired;
  {
    Probe doomed{sim, fired, 1};
    doomed.timer.arm_at(2_us);
    doomed.timer.arm_at(1_us);  // orphans the 2 us entry, files a 1 us one
    EXPECT_EQ(sim.events_pending(), 1u);
  }
  EXPECT_EQ(sim.events_pending(), 0u);
  // New occupants of the freed memory and slots fire normally.
  Probe next{sim, fired, 2};
  next.timer.arm_at(3_us);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventQueue, KeyedPushOrdersEqualTimestampsByKeyNotInsertion) {
  // The parallel engine's merge primitive: equal-time events fire in key
  // order regardless of the order they entered the queue, so a mailbox
  // drain lands cross-domain arrivals in exactly their global rank.
  EventQueue q;
  std::vector<int> fired;
  const std::uint64_t keys[] = {7, 2, 9, 0, 5};
  for (int i = 0; i < 5; ++i) {
    q.push_keyed(5_us, keys[i], [&fired, k = static_cast<int>(keys[i])] {
      fired.push_back(k);
    });
  }
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 5, 7, 9}));
}

TEST(EventQueue, KeyedPushStillOrdersByTimeFirst) {
  EventQueue q;
  std::vector<int> fired;
  q.push_keyed(2_us, 0, [&] { fired.push_back(2); });
  q.push_keyed(1_us, 99, [&] { fired.push_back(1); });
  q.push_keyed(1_us, 3, [&] { fired.push_back(10); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{10, 1, 2}));
}

TEST(EventQueue, StressInterleavedPushPopCancel) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<std::unique_ptr<Probe>> probes;
  for (int i = 0; i < 20; ++i) probes.push_back(std::make_unique<Probe>(sim, fired, i));
  int one_shots = 0;
  for (int round = 0; round < 50; ++round) {
    const Time base = sim.now();
    for (int i = 0; i < 20; ++i) {
      probes[static_cast<std::size_t>(i)]->timer.arm_at(base + Time::microseconds(100 - i));
      sim.schedule_at(base + Time::microseconds(i), [&] { ++one_shots; });
    }
    // Disarm every third timer (some are idle: harmless).
    for (std::size_t i = 0; i < probes.size(); i += 3) probes[i]->timer.disarm();
    sim.run_until(base + Time::microseconds(50));
  }
  sim.run();
  EXPECT_EQ(one_shots, 1000);
  // Every round re-arms each timer later before it fires, so only the last
  // round's 13 armed timers ever fire.
  EXPECT_EQ(fired.size(), 13u);
}

// ---- differential test against a reference model -------------------------
//
// The model is what cancel-and-push would do: a flat list of (at, seq)
// entries, each tagged with the timer or one-shot it belongs to, where
// disarming or re-arming a timer just marks its live entry dead. The next
// event is the live entry with the smallest (at, seq). It shares no code
// with the kernel: no heap, no slots, no re-filing.
class ReferenceModel {
 public:
  static constexpr int kOneShot = -1;

  struct Entry {
    Time at;
    std::uint64_t seq;
    int who;  // timer index, or kOneShot
    bool live;
  };

  void add(Time at, std::uint64_t seq, int who) {
    if (who != kOneShot) disarm(who);
    entries_.push_back({at, seq, who, true});
  }
  void disarm(int timer) {
    for (Entry& e : entries_) {
      if (e.live && e.who == timer) e.live = false;
    }
  }
  // Index of the next event to dispatch; -1 when nothing is live.
  [[nodiscard]] int next() const {
    int best = -1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (!e.live) continue;
      const Entry* b = best < 0 ? nullptr : &entries_[static_cast<std::size_t>(best)];
      if (b == nullptr || e.at < b->at || (e.at == b->at && e.seq < b->seq)) {
        best = static_cast<int>(i);
      }
    }
    return best;
  }
  // Dispatches entry `i`: it is no longer live.
  Entry retire(int i) {
    Entry& e = entries_[static_cast<std::size_t>(i)];
    e.live = false;
    return e;
  }
  [[nodiscard]] std::size_t live() const {
    return static_cast<std::size_t>(
        std::count_if(entries_.begin(), entries_.end(), [](const Entry& e) { return e.live; }));
  }
  [[nodiscard]] bool armed(int timer) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry& e) { return e.live && e.who == timer; });
  }

 private:
  std::vector<Entry> entries_;
};

// One timer under test. Each fire records who fired and stops the loop,
// so Simulator::run() dispatches exactly one event; a fire may re-arm its
// own timer from inside the callback.
struct DiffTimer {
  DiffTimer(Simulator& sim, int index, int& last_fired)
      : sim{&sim}, index{index}, last_fired{&last_fired},
        timer{sim, this, Timer::method<&DiffTimer::fire>} {}

  void fire() {
    *last_fired = index;
    if (rearm_key) {
      if (sim->keyed_ordering()) {
        timer.arm_at(rearm_at, *rearm_key);
      } else {
        timer.arm_at(rearm_at);
      }
      rearm_key.reset();
    }
    sim->stop();
  }

  Simulator* sim;
  int index;
  int* last_fired;
  Time rearm_at{};
  std::optional<std::uint64_t> rearm_key;
  Timer timer;
};

// Drives kTimers timers and one-shot events with seeded random arms
// (later, earlier, at an equal time), disarms, destruction while filed,
// and re-arms after and inside a fire, dispatching one event at a time and
// checking each dispatch, next_event_time() and events_pending() against
// the model. In keyed mode every schedule carries a distinct scrambled
// key, so equal-time order is by key rather than by insertion, and an
// equal-time re-arm can land before the entry already filed.
void run_differential(std::uint64_t seed, bool keyed) {
  constexpr int kTimers = 12;
  constexpr int kSteps = 3000;
  std::mt19937_64 rng{seed};
  const auto below = [&](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };

  Simulator sim;
  if (keyed) sim.enable_keyed_ordering();
  ReferenceModel model;
  std::uint64_t next_seq = 0;  // mirrors the kernel's insertion counter
  std::uint64_t key_counter = 0;
  // The tie-break the next schedule or arm draws. Keys are distinct and
  // scrambled (an odd multiplier is a bijection).
  const auto draw = [&]() -> std::uint64_t {
    if (!keyed) return next_seq++;
    return (++key_counter * 0x9E3779B97F4A7C15ULL) >> 8;
  };
  // A time near `from`: whole microseconds, so equal times are common.
  const auto near = [&](Time from) { return from + Time::microseconds(below(8)); };

  int last_fired = 0;
  std::vector<std::unique_ptr<DiffTimer>> timers(kTimers);
  const auto make = [&](int i) {
    timers[static_cast<std::size_t>(i)] = std::make_unique<DiffTimer>(sim, i, last_fired);
  };
  for (int i = 0; i < kTimers; ++i) make(i);
  std::vector<bool> self_rearm(kTimers, false);

  const auto arm = [&](int i, Time at) {
    const std::uint64_t seq = draw();
    Timer& t = timers[static_cast<std::size_t>(i)]->timer;
    if (keyed) {
      t.arm_at(at, seq);
    } else {
      t.arm_at(at);
    }
    model.add(at, seq, i);
  };
  const auto push = [&](Time at) {
    const std::uint64_t seq = draw();
    auto cb = [&sim, &last_fired] {
      last_fired = ReferenceModel::kOneShot;
      sim.stop();
    };
    if (keyed) {
      sim.schedule_at_keyed(at, seq, cb);
    } else {
      sim.schedule_at(at, cb);
    }
    model.add(at, seq, ReferenceModel::kOneShot);
  };

  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(step);
    // A few operations at the current time.
    for (int op = below(4); op > 0; --op) {
      const int i = below(kTimers);
      Timer& t = timers[static_cast<std::size_t>(i)]->timer;
      const int kind = below(100);
      if (kind < 15) {
        push(near(sim.now()));
      } else if (kind < 40) {  // later than the current expiry
        arm(i, t.armed() ? t.expiry() + Time::microseconds(1 + below(5)) : near(sim.now()));
      } else if (kind < 55) {  // earlier than the current expiry
        arm(i, t.armed() && t.expiry() > sim.now() ? sim.now() : near(sim.now()));
      } else if (kind < 65) {  // at the current expiry
        arm(i, t.armed() ? t.expiry() : near(sim.now()));
      } else if (kind < 80) {
        t.disarm();
        model.disarm(i);
      } else if (kind < 88) {  // destroy (filed or not) and replace
        model.disarm(i);
        make(i);
      } else {
        self_rearm[static_cast<std::size_t>(i)] = below(2) == 0;
      }
      ASSERT_EQ(timers[static_cast<std::size_t>(i)]->timer.armed(), model.armed(i));
      ASSERT_EQ(sim.events_pending(), model.live());
    }

    const int next = model.next();
    if (next < 0) {
      ASSERT_TRUE(sim.next_event_time().is_infinite());
      continue;
    }
    const ReferenceModel::Entry want = model.retire(next);
    ASSERT_EQ(sim.next_event_time(), want.at);
    std::optional<std::pair<Time, std::uint64_t>> rearm;
    if (want.who != ReferenceModel::kOneShot && self_rearm[static_cast<std::size_t>(want.who)]) {
      DiffTimer& owner = *timers[static_cast<std::size_t>(want.who)];
      owner.rearm_at = near(want.at);
      // The key is drawn here; in unkeyed mode the kernel draws the same
      // counter value inside the callback, since nothing draws in between.
      owner.rearm_key = draw();
      rearm.emplace(owner.rearm_at, *owner.rearm_key);
    }
    last_fired = ReferenceModel::kOneShot - 1;
    sim.run();
    ASSERT_EQ(last_fired, want.who);
    ASSERT_EQ(sim.now(), want.at);
    if (rearm) model.add(rearm->first, rearm->second, want.who);
    ASSERT_EQ(sim.events_pending(), model.live());
  }
}

TEST(EventQueueDifferential, TimersAndOneShotsMatchTheReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(seed, /*keyed=*/false);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDifferential, KeyedTimersAndOneShotsMatchTheReferenceModel) {
  for (std::uint64_t seed = 101; seed <= 124; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(seed, /*keyed=*/true);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace incast::sim
