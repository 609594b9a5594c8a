// Tests for the discrete-event pending set: ordering, ties, timers (arm,
// re-arm, disarm) and delay lines, plus a seeded differential test of
// timers, one-shot events and line entries against independent reference
// models of the dispatch order and of the kernel's footprint.
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

// Pops the next event and runs it.
void run_next(EventQueue& q) {
  q.pop([](Time) { return true; }, [](Time, EventCategory, auto&& fire) { fire(); });
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3_us, [&] { fired.push_back(3); });
  q.push(1_us, [&] { fired.push_back(1); });
  q.push(2_us, [&] { fired.push_back(2); });
  while (!q.empty()) run_next(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimestampsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(5_us, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) run_next(q);
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
  while (!q.empty()) run_next(q);
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 5, 7, 9}));
}

TEST(EventQueue, KeyedPushStillOrdersByTimeFirst) {
  EventQueue q;
  std::vector<int> fired;
  q.push_keyed(2_us, 0, [&] { fired.push_back(2); });
  q.push_keyed(1_us, 99, [&] { fired.push_back(1); });
  q.push_keyed(1_us, 3, [&] { fired.push_back(10); });
  while (!q.empty()) run_next(q);
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

// ---- differential test against reference models --------------------------
//
// ReferenceModel is what cancel-and-push would do: a flat list of the live
// (at, seq) entries, each tagged with the timer, one-shot or line entry it
// belongs to, where disarming or re-arming a timer just drops its live
// entry. The next event is the live entry with the smallest (at, seq). It
// shares no code with the kernel: no heap, no slots, no lines, no
// re-filing.
class ReferenceModel {
 public:
  static constexpr int kOneShot = -1;
  static constexpr int kLine = -2;  // an entry filed on a delay line

  struct Entry {
    Time at;
    std::uint64_t seq;
    int who;  // timer index, kOneShot or kLine
  };

  void add(Time at, std::uint64_t seq, int who) {
    if (who >= 0) disarm(who);
    entries_.push_back({at, seq, who});
  }
  void disarm(int timer) {
    std::erase_if(entries_, [&](const Entry& e) { return e.who == timer; });
  }
  // Index of the next event to dispatch; -1 when nothing is live.
  [[nodiscard]] int next() const {
    if (entries_.empty()) return -1;
    return static_cast<int>(std::min_element(entries_.begin(), entries_.end(), earlier) -
                            entries_.begin());
  }
  // Dispatches entry `i`: it is no longer live.
  Entry retire(int i) {
    const auto it = entries_.begin() + i;
    const Entry e = *it;
    entries_.erase(it);
    return e;
  }
  [[nodiscard]] std::size_t live() const { return entries_.size(); }
  [[nodiscard]] bool armed(int timer) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry& e) { return e.who == timer; });
  }

  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

 private:
  std::vector<Entry> entries_;
};

// HeapCensus counts the entries that one heap holding every pending entry
// would hold, under the filing rules sim/event_queue.h documents: a timer
// files an entry when it is armed no later than its filed one, a later arm
// only moves its expiry, and an entry surfaces when it is the earliest of
// all — it is then dropped (orphaned or disarmed), re-filed at the expiry
// (early), or dispatched. Its peak is what peak_pending() must read,
// however the kernel stores the entries. Line entries count toward it but
// hold no slab slot, so slab_high_water() must read the peak of the other
// entries, and line_high_water() the sum of each line's own peak.
class HeapCensus {
 public:
  explicit HeapCensus(int timers, int lines = 0)
      : timers_(static_cast<std::size_t>(timers)), lines_(static_cast<std::size_t>(lines)) {}

  void push(Time at, std::uint64_t seq) { file({at, seq, ReferenceModel::kOneShot}); }
  void push_line(int line, Time at, std::uint64_t seq) {
    file({at, seq, ReferenceModel::kLine, false, line});
    LineCount& l = lines_[static_cast<std::size_t>(line)];
    l.peak = std::max(l.peak, ++l.now);
  }

  void arm(int timer, Time at, std::uint64_t seq) {
    timers_[static_cast<std::size_t>(timer)] = {true, at, seq};
    if (Entry* e = filed(timer)) {
      if (at > e->at) return;
      e->orphan = true;
    }
    file({at, seq, timer});
  }
  void disarm(int timer) { timers_[static_cast<std::size_t>(timer)].armed = false; }
  void destroy(int timer) {
    disarm(timer);
    if (Entry* e = filed(timer)) e->orphan = true;
  }

  // Surfaces entries until the earliest one is due, as next_time() does.
  void settle() {
    while (!entries_.empty()) {
      const auto it = earliest();
      if (it->who < 0) return;  // a one-shot or line entry is due
      const TimerState& t = timers_[static_cast<std::size_t>(it->who)];
      if (!it->orphan && t.armed) {
        if (t.at == it->at && t.seq == it->seq) return;
        it->at = t.at;  // re-filed at the expiry
        it->seq = t.seq;
        continue;
      }
      erase(it);
    }
  }
  // Dispatches the next event, as pop() does.
  void dispatch() {
    settle();
    const auto it = earliest();
    if (it->who >= 0) disarm(it->who);
    erase(it);
  }

  [[nodiscard]] std::size_t peak() const { return peak_; }
  [[nodiscard]] std::size_t slab_peak() const { return slab_peak_; }
  [[nodiscard]] std::size_t line_peak() const {
    std::size_t sum = 0;
    for (const LineCount& l : lines_) sum += l.peak;
    return sum;
  }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    int who;  // timer index, ReferenceModel::kOneShot or kLine
    bool orphan{false};
    int line{-1};  // which line, for kLine
  };
  struct TimerState {
    bool armed{false};
    Time at{};
    std::uint64_t seq{0};
  };

  void file(const Entry& e) {
    entries_.push_back(e);
    peak_ = std::max(peak_, entries_.size());
    if (e.who != ReferenceModel::kLine) slab_peak_ = std::max(slab_peak_, ++slotted_);
  }
  void erase(std::vector<Entry>::iterator it) {
    if (it->who == ReferenceModel::kLine) {
      --lines_[static_cast<std::size_t>(it->line)].now;
    } else {
      --slotted_;
    }
    entries_.erase(it);
  }
  Entry* filed(int timer) {
    for (Entry& e : entries_) {
      if (e.who == timer && !e.orphan) return &e;
    }
    return nullptr;
  }
  std::vector<Entry>::iterator earliest() {
    return std::min_element(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
      return a.at < b.at || (a.at == b.at && a.seq < b.seq);
    });
  }

  struct LineCount {
    std::size_t now{0};
    std::size_t peak{0};
  };

  std::vector<Entry> entries_;
  std::vector<TimerState> timers_;
  std::vector<LineCount> lines_;
  std::size_t peak_{0};
  std::size_t slotted_{0};  // entries holding a slab slot
  std::size_t slab_peak_{0};
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

// The load a differential run puts on the queue.
enum class Shape {
  // A dozen timers under every kind of arm, disarm and destruction, with
  // one-shot events and most times equal: exercises every filing rule.
  kMixed,
  // The incast regime: over a thousand RTO timers parked 200 ms out and
  // pushed back ACK-style on most steps, under churn from ~50 near one-shot
  // events. Filed entries surface, re-file and orphan by the hundreds.
  kParkedTimers,
  // The mixed shape plus runs of delay-line entries on two delays, filed
  // on the same microsecond grid as the one-shots and timers: line heads
  // tie with heap roots and timer roots, and with each other.
  kDelayLines,
};

// The fire of the differential test's delay lines: records that a line
// entry fired and which (its seq travels as the item), and stops the loop.
struct LineProbe {
  Simulator* sim;
  int* last_fired;
  std::uint64_t last_seq{0};

  static void fire(void* owner, void* item) {
    auto* probe = static_cast<LineProbe*>(owner);
    *probe->last_fired = ReferenceModel::kLine;
    probe->last_seq = reinterpret_cast<std::uintptr_t>(item);
    probe->sim->stop();
  }
};

// Drives timers and one-shot events with seeded random arms (later,
// earlier, at an equal time), disarms, destruction while filed, and re-arms
// after and inside a fire, dispatching one event at a time. Each dispatch,
// next_event_time() and events_pending() are checked against the
// ReferenceModel, and peak_events_pending(), slab_high_water() and
// line_high_water() against the HeapCensus; a line entry must fire as the
// very entry the model expects. In keyed mode every schedule carries a
// distinct scrambled key, so equal-time order is by key rather than by
// insertion, and an equal-time re-arm can land before the entry already
// filed; keyed mode files nothing on a line.
void run_differential(std::uint64_t seed, bool keyed, Shape shape) {
  const bool parked = shape == Shape::kParkedTimers;
  const bool lines = shape == Shape::kDelayLines;
  ASSERT_FALSE(lines && keyed) << "keyed mode files nothing on a line";
  constexpr Time kLineDelay[] = {3_us, 5_us};
  const int kTimers = parked ? 1200 : 12;
  const int kSteps = parked ? 4000 : 3000;
  constexpr int kNearOneShots = 50;  // kParkedTimers' one-shot population
  constexpr Time kRto = 200_ms;
  std::mt19937_64 rng{seed};
  const auto below = [&](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };

  Simulator sim;
  if (keyed) sim.enable_keyed_ordering();
  ReferenceModel model;
  HeapCensus census{kTimers, lines ? 2 : 0};
  std::uint64_t next_seq = 0;  // mirrors the kernel's insertion counter
  std::uint64_t key_counter = 0;
  // The tie-break the next schedule or arm draws. Keys are distinct and
  // scrambled (an odd multiplier is a bijection).
  const auto draw = [&]() -> std::uint64_t {
    if (!keyed) return next_seq++;
    return (++key_counter * 0x9E3779B97F4A7C15ULL) >> 8;
  };
  // A time near `from`, on a coarse grid so equal times are common: whole
  // microseconds, or 100 us steps under parked timers (whose expiries fall
  // on the same grid).
  const auto near = [&](Time from) {
    return parked ? from + Time::microseconds(100 * below(80))
                  : from + Time::microseconds(below(8));
  };

  int last_fired = 0;
  LineProbe line_probe{&sim, &last_fired};
  const DelayLine line_ids[] = {sim.delay_line(kLineDelay[0], &LineProbe::fire),
                                sim.delay_line(kLineDelay[1], &LineProbe::fire)};
  std::vector<std::unique_ptr<DiffTimer>> timers(static_cast<std::size_t>(kTimers));
  const auto make = [&](int i) {
    timers[static_cast<std::size_t>(i)] = std::make_unique<DiffTimer>(sim, i, last_fired);
  };
  for (int i = 0; i < kTimers; ++i) make(i);
  std::vector<bool> self_rearm(static_cast<std::size_t>(kTimers), false);
  int one_shots = 0;  // pending one-shot events

  const auto arm = [&](int i, Time at) {
    const std::uint64_t seq = draw();
    Timer& t = timers[static_cast<std::size_t>(i)]->timer;
    if (keyed) {
      t.arm_at(at, seq);
    } else {
      t.arm_at(at);
    }
    model.add(at, seq, i);
    census.arm(i, at, seq);
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
    census.push(at, seq);
    ++one_shots;
  };
  const auto push_line = [&](int line) {
    const std::uint64_t seq = draw();
    const Time at = sim.now() + kLineDelay[line];
    sim.schedule_on(line_ids[line], &line_probe, reinterpret_cast<void*>(seq));
    model.add(at, seq, ReferenceModel::kLine);
    census.push_line(line, at, seq);
  };
  const auto disarm = [&](int i) {
    timers[static_cast<std::size_t>(i)]->timer.disarm();
    model.disarm(i);
    census.disarm(i);
  };
  const auto destroy = [&](int i) {  // destroy (filed or not) and replace
    model.disarm(i);
    census.destroy(i);
    make(i);
  };
  const auto check_footprint = [&] {
    ASSERT_EQ(sim.events_pending(), model.live());
    ASSERT_EQ(sim.peak_events_pending(), census.peak());
    ASSERT_EQ(sim.slab_high_water(), census.slab_peak());
    ASSERT_EQ(sim.line_high_water(), census.line_peak());
  };
  // One of the mixed shape's operations on a random timer.
  const auto mixed_op = [&] {
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
      disarm(i);
    } else if (kind < 88) {
      destroy(i);
    } else {
      self_rearm[static_cast<std::size_t>(i)] = below(2) == 0;
    }
    ASSERT_EQ(timers[static_cast<std::size_t>(i)]->timer.armed(), model.armed(i));
  };
  // The parked shape's operations for one step: top the near one-shots up,
  // push a few RTOs back (an ACK each), and now and then something rarer.
  const auto parked_ops = [&] {
    while (one_shots < kNearOneShots) push(near(sim.now()));
    for (int acks = below(4); acks > 0; --acks) arm(below(kTimers), sim.now() + kRto);
    const int i = below(kTimers);
    const int kind = below(100);
    if (kind < 3) {
      arm(i, near(sim.now()));  // earlier than a parked expiry
    } else if (kind < 5) {
      disarm(i);
    } else if (kind < 6) {
      destroy(i);
    } else if (kind < 8) {
      self_rearm[static_cast<std::size_t>(i)] = below(2) == 0;
    }
    ASSERT_EQ(timers[static_cast<std::size_t>(i)]->timer.armed(), model.armed(i));
  };

  if (parked) {
    for (int i = 0; i < kTimers; ++i) arm(i, kRto);
  }
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(step);
    if (parked) {
      parked_ops();
      if (::testing::Test::HasFatalFailure()) return;
      check_footprint();
    } else {
      for (int op = below(4); op > 0; --op) {  // a few operations at the current time
        if (lines && below(100) < 30) {
          // A run of arrivals, as a port delivering back to back.
          const int line = below(2);
          for (int n = 1 + below(3); n > 0; --n) push_line(line);
          check_footprint();
          if (::testing::Test::HasFatalFailure()) return;
          continue;
        }
        mixed_op();
        if (::testing::Test::HasFatalFailure()) return;
        check_footprint();
      }
    }
    if (::testing::Test::HasFatalFailure()) return;

    const int next = model.next();
    census.settle();
    if (next < 0) {
      ASSERT_TRUE(sim.next_event_time().is_infinite());
      continue;
    }
    const ReferenceModel::Entry want = model.retire(next);
    ASSERT_EQ(sim.next_event_time(), want.at);
    std::optional<std::pair<Time, std::uint64_t>> rearm;
    if (want.who >= 0 && self_rearm[static_cast<std::size_t>(want.who)]) {
      DiffTimer& owner = *timers[static_cast<std::size_t>(want.who)];
      owner.rearm_at = parked ? want.at + kRto : near(want.at);
      // The key is drawn here; in unkeyed mode the kernel draws the same
      // counter value inside the callback, since nothing draws in between.
      owner.rearm_key = draw();
      rearm.emplace(owner.rearm_at, *owner.rearm_key);
    }
    last_fired = ReferenceModel::kLine - 1;
    sim.run();
    census.dispatch();
    ASSERT_EQ(last_fired, want.who);
    if (want.who == ReferenceModel::kLine) {
      ASSERT_EQ(line_probe.last_seq, want.seq);
    }
    ASSERT_EQ(sim.now(), want.at);
    if (want.who == ReferenceModel::kOneShot) --one_shots;
    if (rearm) {
      model.add(rearm->first, rearm->second, want.who);
      census.arm(want.who, rearm->first, rearm->second);
    }
    check_footprint();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueueDifferential, TimersAndOneShotsMatchTheReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(seed, /*keyed=*/false, Shape::kMixed);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDifferential, KeyedTimersAndOneShotsMatchTheReferenceModel) {
  for (std::uint64_t seed = 101; seed <= 124; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(seed, /*keyed=*/true, Shape::kMixed);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDifferential, ParkedTimersMatchTheReferenceModel) {
  for (std::uint64_t seed = 201; seed <= 204; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(seed, /*keyed=*/false, Shape::kParkedTimers);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDifferential, DelayLinesMatchTheReferenceModel) {
  for (std::uint64_t seed = 401; seed <= 424; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(seed, /*keyed=*/false, Shape::kDelayLines);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDifferential, KeyedParkedTimersMatchTheReferenceModel) {
  for (std::uint64_t seed = 301; seed <= 304; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(seed, /*keyed=*/true, Shape::kParkedTimers);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace incast::sim
