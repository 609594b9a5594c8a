// EventQueue: the pending-event set of the discrete-event kernel.
//
// Layout is chosen so that steady-state dispatch performs zero heap
// allocations and zero hash-table operations:
//
//  * Pending entries live in cache-friendly 4-ary implicit heaps whose
//    entries are 24-byte PODs (Time, seq, slot). Sift operations move these
//    small entries, never the callbacks.
//  * Callbacks (allocation-free sim::InlineFunction) and their category live
//    in a free-listed slab indexed by `slot`. A slot belongs to exactly one
//    heap entry: it is taken when the entry is filed and freed when the
//    entry leaves its heap, so it never moves and is never reused while
//    referenced.
//  * Ordering is (time, seq) with seq a monotonically increasing insertion
//    counter, which makes event ordering at equal timestamps deterministic
//    (FIFO) — essential for reproducible runs.
//
// Two kinds of event are pending. A one-shot event (push) runs its callback
// once and cannot be withdrawn. A Timer (sim/simulator.h) is a re-armable
// event owned by the component that uses it — TCP's RTO, TLP, pacing and
// delayed-ACK timers. Arming draws the (time, seq) key a push would draw,
// and the timer keeps it as its expiry; disarming draws nothing. The queue
// files at most one live entry per timer, under a key no later than the
// expiry:
//
//  * arming later than the filed entry only moves the expiry;
//  * when the filed entry surfaces before the expiry, the queue re-files it
//    at the expiry without dispatching anything;
//  * arming earlier than (or at the time of) the filed entry files a fresh
//    entry and orphans the old one, which is dropped when it surfaces;
//  * a disarmed timer's entry is dropped when it surfaces.
//
// A timer therefore fires exactly when an event pushed at its last arm
// would have fired, in the same (time, seq) order against every other
// event, and events_processed counts the same dispatches.
//
// One-shot events and timer entries sit in two separate heaps. In an
// incast most timers are RTOs parked ~200 ms out while a few dozen packet
// events do the work, so a one-shot push or pop sifts through the few
// near events only, not through thousands of parked timers. An entry
// "surfaces" when it is the earliest of both heaps — when it would be the
// root of one heap holding both — and the queue looks at the timer heap
// only then: when its root comes before the event heap's. Orphaned and
// disarmed entries are dropped, and early entries re-filed, at exactly the
// moments one heap would do it. So the dispatch order, every key draw, the
// slot each entry takes, peak_pending() (both heaps' entries together) and
// slab_high_water() are those of a single heap.
#ifndef INCAST_SIM_EVENT_QUEUE_H_
#define INCAST_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_category.h"
#include "sim/inline_function.h"
#include "sim/time.h"

namespace incast::sim {

class Simulator;
class EventQueue;

// A re-armable event: calls `fire(owner)` at its expiry. It lives in the
// component that uses it (a TCP sender keeps three) and must not outlive
// the Simulator it was built for; destroying it withdraws it. Its member
// functions are defined in sim/simulator.h, which users include.
class Timer {
 public:
  using Fire = void (*)(void* owner);

  Timer(Simulator& sim, void* owner, Fire fire,
        EventCategory category = EventCategory::kGeneric) noexcept
      : sim_{&sim}, owner_{owner}, fire_{fire}, category_{category} {}
  ~Timer();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // The Fire that calls member function `Method` of the owner:
  //   Timer rto_{sim, this, Timer::method<&TcpSender::on_rto>};
  template <auto Method>
  static void method(void* owner) {
    (static_cast<typename MemberOwner<decltype(Method)>::type*>(owner)->*Method)();
  }

  // (Re-)arms the timer to fire at `at` (>= now), or `delay` from now. The
  // key overloads mirror Simulator::schedule_at_keyed: in keyed mode `key`
  // is the tie-break, otherwise the insertion counter is. Re-arming an
  // armed timer replaces its expiry, exactly as cancelling it and pushing
  // a new event would.
  void arm_at(Time at);
  void arm_at(Time at, std::uint64_t key);
  void arm_in(Time delay);
  void arm_in(Time delay, std::uint64_t key);

  // Stops the timer from firing; a no-op when it is not armed.
  void disarm() noexcept;

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  // The time the timer fires at; meaningful only while armed().
  [[nodiscard]] Time expiry() const noexcept { return at_; }

 private:
  friend class EventQueue;

  template <typename>
  struct MemberOwner;
  template <typename Owner>
  struct MemberOwner<void (Owner::*)()> {
    using type = Owner;
  };

  static constexpr std::uint32_t kNotFiled = static_cast<std::uint32_t>(-1);

  Simulator* sim_;
  void* owner_;
  Fire fire_;
  Time at_{};                    // expiry, while armed_
  std::uint64_t seq_{0};         // expiry tie-break, while armed_
  Time filed_at_{};              // time of the filed heap entry, while filed
  std::uint32_t slot_{kNotFiled};  // the filed heap entry's slot
  EventCategory category_;
  bool armed_{false};
};
static_assert(sizeof(Timer) <= 56, "timers live in per-flow state and are meant to stay small");

class EventQueue {
 public:
  using Callback = InlineFunction;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Pre-sizes the heaps and slab for `n` concurrently pending events, so a
  // simulation whose peak depth is known up front (hosts x flows x a few
  // timers) never grows any of them on its hot path.
  void reserve(std::size_t n) {
    events_.reserve(n);
    timers_.reserve(n);
    slots_.reserve(n);
  }

  // Schedules `cb` (an InlineFunction or any callable it can hold) to run
  // once at absolute time `at`; the callable is built in its slab slot.
  // Scheduling into the past is the caller's bug; the queue will still pop
  // events in heap order, so the kernel asserts on it instead.
  template <typename F>
  void push(Time at, F&& cb, EventCategory category = EventCategory::kGeneric) {
    push_keyed(at, next_seq_++, std::forward<F>(cb), category);
  }

  // Schedules `cb` with an explicit tie-break key instead of the queue's
  // insertion counter. The parallel engine uses this to impose one global
  // (time, key) order across per-domain queues: keys are composed from
  // per-entity lanes (sim/domain.h), so equal-time ordering is independent
  // of which queue an event lands in. A queue must not mix push() and
  // push_keyed() — the insertion counter and external keys draw from
  // unrelated number spaces, so interleaving them would make equal-time
  // order depend on scheduling history. Simulator files every event here
  // with a tie-break it drew for its mode: draw_seq() unkeyed, keys keyed.
  template <typename F>
  void push_keyed(Time at, std::uint64_t key, F&& cb,
                  EventCategory category = EventCategory::kGeneric) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.cb = std::forward<F>(cb);
    s.category = category;
    events_.push(at, key, slot);
    note_pending();
    ++live_;
  }

  // Draws the next insertion-counter value, as push() would.
  [[nodiscard]] std::uint64_t draw_seq() noexcept { return next_seq_++; }

  // Arms `t` to fire at (at, seq), replacing any expiry it had. `seq` comes
  // from draw_seq() or is a keyed-mode key, like the tie-break of a push.
  void arm(Timer& t, Time at, std::uint64_t seq) {
    if (!t.armed_) ++live_;
    t.armed_ = true;
    t.at_ = at;
    t.seq_ = seq;
    if (t.slot_ != Timer::kNotFiled) {
      // The filed entry surfaces first and is re-filed at the expiry then.
      if (at > t.filed_at_) return;
      orphan(t);
    }
    const std::uint32_t slot = acquire_slot();
    t.slot_ = slot;
    t.filed_at_ = at;
    slots_[slot].timer = &t;
    timers_.push(at, seq, slot);
    note_pending();
  }

  // Disarms `t`. Its filed entry stays in the timer heap until it surfaces
  // (or until a later arm re-uses it), so disarming draws nothing.
  void disarm(Timer& t) noexcept {
    if (!t.armed_) return;
    t.armed_ = false;
    --live_;
  }

  // Withdraws a timer that is being destroyed.
  void forget(Timer& t) noexcept {
    disarm(t);
    if (t.slot_ != Timer::kNotFiled) orphan(t);
  }

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  // Pending one-shot events plus armed timers.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  // Time of the next event to dispatch; Time::infinity() if none.
  // Logically const: settling drops and re-files timer entries but never
  // changes the observable event sequence.
  [[nodiscard]] Time next_time() const {
    auto& self = *const_cast<EventQueue*>(this);
    if (self.settle()) return timers_.front().at;
    return events_.empty() ? Time::infinity() : events_.front().at;
  }

  // Pops the next event: a one-shot event's callback, or a call of a
  // timer's Fire. A popped timer is already disarmed, so its Fire may
  // re-arm it. Precondition: !empty().
  struct Popped {
    Time at;
    EventCategory category;
    Callback cb;
  };
  Popped pop() {
    if (settle()) [[unlikely]] {
      const Entry top = timers_.front();
      timers_.pop();
      Timer& t = *slots_[top.slot].timer;
      t.armed_ = false;
      t.slot_ = Timer::kNotFiled;
      release_slot(top.slot);
      --live_;
      return Popped{top.at, t.category_, [fire = t.fire_, owner = t.owner_] { fire(owner); }};
    }
    assert(!events_.empty() && "pop() on an empty queue");
    const Entry top = events_.front();
    events_.pop();
    release_slot(top.slot);  // leaves cb in place until the next acquire
    --live_;
    Slot& s = slots_[top.slot];
    return Popped{top.at, s.category, std::move(s.cb)};
  }

  // Peak number of heap entries, both heaps together, since construction
  // (entries of disarmed and orphaned timers included — they occupy real
  // memory until they surface).
  [[nodiscard]] std::size_t peak_pending() const noexcept { return peak_pending_; }
  // Slab high-water mark: the most slots ever in existence, i.e. the peak
  // number of heap entries the queue has sized itself for.
  [[nodiscard]] std::size_t slab_high_water() const noexcept { return slots_.size(); }
  // Bytes one slab slot occupies — multiply by slab_high_water() for the
  // event kernel's contribution to a memory budget.
  [[nodiscard]] static constexpr std::size_t slot_bytes() noexcept;

 private:
  // 24 bytes; sift operations shuffle these, never the callbacks. seq is
  // 64-bit so FIFO tie-breaking cannot wrap within any realistic run.
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Entry) <= 24, "heap entries are meant to stay small");

  // Strict-weak order: earlier (time, seq) is dispatched first.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    return before(a.at, a.seq, b);
  }
  [[nodiscard]] static bool before(Time at, std::uint64_t seq, const Entry& b) noexcept {
    if (at != b.at) return at < b.at;
    return seq < b.seq;
  }

  // A 4-ary implicit min-heap of entries under before().
  class Heap {
   public:
    void reserve(std::size_t n) { v_.reserve(n); }
    [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
    [[nodiscard]] const Entry& front() const noexcept { return v_.front(); }

    // Files (at, seq, slot). The new entry never goes to memory until its
    // final position is known: the hole opens at the end and parents move
    // down into it, so no freshly stored entry is read back while the
    // caller's closure stores are still in flight.
    void push(Time at, std::uint64_t seq, std::uint32_t slot) {
      std::size_t i = v_.size();
      v_.emplace_back();
      Entry* const v = v_.data();
      while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!before(at, seq, v[parent])) break;
        v[i] = v[parent];
        i = parent;
      }
      v[i].at = at;
      v[i].seq = seq;
      v[i].slot = slot;
    }

    // Removes the root: the last entry sifts down from the top.
    void pop() noexcept {
      const Entry e = v_.back();
      v_.pop_back();
      if (!v_.empty()) replace_front(e);
    }

    // Overwrites the root with `e` and sifts it down.
    void replace_front(Entry e) noexcept {
      const std::size_t n = v_.size();
      std::size_t i = 0;
      for (;;) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= n) break;
        std::size_t best = first_child;
        const std::size_t last_child = std::min(first_child + 4, n);
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
          if (before(v_[c], v_[best])) best = c;
        }
        if (!before(v_[best], e)) break;
        v_[i] = v_[best];
        i = best;
      }
      v_[i] = e;
    }

   private:
    std::vector<Entry> v_;
  };

  // A slot of the event heap holds a callback and its category; a slot of
  // the timer heap holds its timer, or nullptr once the timer has abandoned
  // the entry (an orphan, dropped when it surfaces).
  struct Slot {
    Callback cb;             // event entries; empty otherwise
    Timer* timer{nullptr};   // timer entries
    std::uint32_t next_free{kNoSlot};
    EventCategory category{EventCategory::kGeneric};
  };

  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  // Called after each filing: both heaps' entries count toward the peak.
  void note_pending() noexcept {
    peak_pending_ = std::max(peak_pending_, events_.size() + timers_.size());
  }

  // Detaches `t` from its filed entry, which stays in the timer heap as an
  // orphan until it surfaces.
  void orphan(Timer& t) noexcept {
    slots_[t.slot_].timer = nullptr;
    t.slot_ = Timer::kNotFiled;
  }

  [[nodiscard]] std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    assert(slots_.size() < kNoSlot && "slab exhausted");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(std::uint32_t slot) noexcept {
    slots_[slot].next_free = free_head_;
    free_head_ = slot;
  }

  // Surfaces timer entries while the timer heap's root comes before the
  // event heap's: drops orphaned entries and those of disarmed timers, and
  // re-files an entry that surfaced before its timer's expiry at that
  // expiry. Returns whether the next event is the timer heap's root (a due
  // timer); otherwise it is the event heap's root, if any.
  bool settle() noexcept {
    while (!timers_.empty()) {
      const Entry top = timers_.front();
      if (!events_.empty() && !before(top, events_.front())) [[likely]] return false;
      if (Timer* t = slots_[top.slot].timer) {
        if (t->armed_) {
          if (t->at_ == top.at && t->seq_ == top.seq) return true;
          t->filed_at_ = t->at_;
          timers_.replace_front(Entry{t->at_, t->seq_, top.slot});
          continue;
        }
        t->slot_ = Timer::kNotFiled;
      }
      release_slot(top.slot);
      timers_.pop();
    }
    return false;
  }

  Heap events_;  // one-shot events
  Heap timers_;  // filed timer entries, orphans included
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNoSlot};
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
  std::size_t peak_pending_{0};
};

constexpr std::size_t EventQueue::slot_bytes() noexcept { return sizeof(Slot); }

}  // namespace incast::sim

#endif  // INCAST_SIM_EVENT_QUEUE_H_
