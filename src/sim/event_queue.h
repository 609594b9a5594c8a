// EventQueue: the pending-event set of the discrete-event kernel.
//
// Layout is chosen so that steady-state dispatch performs zero heap
// allocations and zero hash-table operations:
//
//  * The heap is a cache-friendly 4-ary implicit heap whose entries are
//    24-byte PODs (Time, seq, slot). Sift operations move these small
//    entries, never the callbacks.
//  * Callbacks (allocation-free sim::InlineFunction) and their category live
//    in a free-listed slab indexed by `slot`. A slot belongs to exactly one
//    heap entry: it is taken when the entry is filed and freed when the
//    entry leaves the heap, so it never moves and is never reused while
//    referenced.
//  * Ordering is (time, seq) with seq a monotonically increasing insertion
//    counter, which makes event ordering at equal timestamps deterministic
//    (FIFO) — essential for reproducible runs.
//
// Two kinds of event share the heap. A one-shot event (push) runs its
// callback once and cannot be withdrawn. A Timer (sim/simulator.h) is a
// re-armable event owned by the component that uses it — TCP's RTO, TLP,
// pacing and delayed-ACK timers. Arming draws the (time, seq) key a push
// would draw, and the timer keeps it as its expiry; disarming draws
// nothing. The queue files at most one live heap entry per timer, under a
// key no later than the expiry:
//
//  * arming later than the filed entry only moves the expiry;
//  * when the filed entry reaches the root before the expiry, the queue
//    re-files it at the expiry without dispatching anything;
//  * arming earlier than (or at the time of) the filed entry files a fresh
//    entry and orphans the old one, which is dropped when it surfaces;
//  * a disarmed timer's entry is dropped when it surfaces.
//
// A timer therefore fires exactly when an event pushed at its last arm
// would have fired, in the same (time, seq) order against every other
// event, and events_processed counts the same dispatches. What changes is
// the heap: a timer re-armed on every ACK holds one entry instead of
// leaving one dead entry per ACK behind.
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

  // Pre-sizes the heap and slab for `n` concurrently pending events, so a
  // simulation whose peak depth is known up front (hosts x flows x a few
  // timers) never grows either on its hot path.
  void reserve(std::size_t n) {
    heap_.reserve(n);
    slots_.reserve(n);
  }

  // Schedules `cb` to run once at absolute time `at`. Scheduling into the
  // past is the caller's bug; the queue will still pop events in heap
  // order, so the kernel asserts on it instead.
  void push(Time at, Callback cb, EventCategory category = EventCategory::kGeneric) {
    push_with_seq(at, next_seq_++, std::move(cb), category);
  }

  // Schedules `cb` with an explicit tie-break key instead of the queue's
  // insertion counter. The parallel engine uses this to impose one global
  // (time, key) order across per-domain queues: keys are composed from
  // per-entity lanes (sim/domain.h), so equal-time ordering is independent
  // of which queue an event lands in. A queue must not mix push() and
  // push_keyed() — the insertion counter and external keys draw from
  // unrelated number spaces, so interleaving them would make equal-time
  // order depend on scheduling history. Simulator enforces this by routing
  // every push through one mode or the other.
  void push_keyed(Time at, std::uint64_t key, Callback cb,
                  EventCategory category = EventCategory::kGeneric) {
    push_with_seq(at, key, std::move(cb), category);
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
    t.slot_ = acquire_slot();
    t.filed_at_ = at;
    Slot& s = slots_[t.slot_];
    s.timer = &t;
    s.category = t.category_;
    s.kind = Kind::kTimer;
    file(Entry{at, seq, t.slot_});
  }

  // Disarms `t`. Its filed entry stays in the heap until it surfaces (or
  // until a later arm re-uses it), so disarming draws nothing.
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
  // Logically const: settling the root drops and re-files heap entries but
  // never changes the observable event sequence.
  [[nodiscard]] Time next_time() const {
    const_cast<EventQueue*>(this)->settle_root();
    return heap_.empty() ? Time::infinity() : heap_.front().at;
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
    settle_root();
    assert(!heap_.empty() && "pop() on an empty queue");
    const Entry top = heap_.front();
    pop_root();
    Slot& s = slots_[top.slot];
    Popped out{top.at, s.category, std::move(s.cb)};
    if (s.kind == Kind::kTimer) [[unlikely]] {
      Timer& t = *s.timer;
      t.armed_ = false;
      t.slot_ = Timer::kNotFiled;
      out.cb = [fire = t.fire_, owner = t.owner_] { fire(owner); };
    }
    release_slot(top.slot);
    --live_;
    return out;
  }

  // Peak heap depth since construction (entries of disarmed and orphaned
  // timers included — they occupy real heap memory until they surface).
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

  // What a slot's heap entry is: a one-shot callback, a timer's filed
  // entry, or an entry its timer has abandoned (dropped when it surfaces).
  enum class Kind : std::uint8_t { kEvent, kTimer, kOrphan };

  struct Slot {
    Callback cb;             // kEvent; empty otherwise
    Timer* timer{nullptr};   // kTimer
    std::uint32_t next_free{kNoSlot};
    EventCategory category{EventCategory::kGeneric};
    Kind kind{Kind::kEvent};
  };

  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  void push_with_seq(Time at, std::uint64_t seq, Callback cb, EventCategory category) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.cb = std::move(cb);
    s.category = category;
    s.kind = Kind::kEvent;
    file(Entry{at, seq, slot});
    ++live_;
  }

  void file(const Entry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
    if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
  }

  // Detaches `t` from its filed entry, which stays in the heap as an
  // orphan until it surfaces.
  void orphan(Timer& t) noexcept {
    slots_[t.slot_].kind = Kind::kOrphan;
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

  // Strict-weak order: earlier (time, seq) is dispatched first.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i) noexcept {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  // Places `e` at the root's position and sifts it down. The root's old
  // entry is overwritten.
  void sift_down_from_root(const Entry& e) noexcept {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  // Removes the root: the last entry sifts down from the top.
  void pop_root() noexcept {
    const Entry e = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down_from_root(e);
  }

  // Brings a due entry to the root: drops orphaned entries and those of
  // disarmed timers, and re-files a timer entry that surfaced before its
  // expiry at that expiry. Afterwards the root, if any, is the next event.
  void settle_root() noexcept {
    while (!heap_.empty()) {
      const Entry top = heap_.front();
      Slot& s = slots_[top.slot];
      if (s.kind == Kind::kEvent) [[likely]] return;
      if (s.kind == Kind::kTimer) {
        Timer& t = *s.timer;
        if (t.armed_) {
          if (t.at_ == top.at && t.seq_ == top.seq) return;
          t.filed_at_ = t.at_;
          sift_down_from_root(Entry{t.at_, t.seq_, top.slot});
          continue;
        }
        t.slot_ = Timer::kNotFiled;
      }
      release_slot(top.slot);
      pop_root();
    }
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNoSlot};
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
  std::size_t peak_pending_{0};
};

constexpr std::size_t EventQueue::slot_bytes() noexcept { return sizeof(Slot); }

}  // namespace incast::sim

#endif  // INCAST_SIM_EVENT_QUEUE_H_
