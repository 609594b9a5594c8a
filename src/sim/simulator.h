// Simulator: the discrete-event loop.
//
// Single-threaded and deterministic: events at equal timestamps fire in
// scheduling order. All simulation components hold a Simulator& and schedule
// work through it; nothing in the simulation may consult wall-clock time.
//
// Two ways to schedule: schedule_at/schedule_in push a one-shot callback
// that always runs, and a sim::Timer (sim/event_queue.h) is a re-armable
// event a component owns — arm it, re-arm it, disarm it. A timer is the
// only way to stop an event before it fires.
//
// The hot path is allocation-free: callbacks are sim::InlineFunction (fixed
// inline capture budget, compile error on oversize), built in place in a
// slab slot by the inline schedule_* templates, and steady-state dispatch
// performs no heap allocations and no hash-table operations. The pending
// set is two slab-backed 4-ary heaps (sim/event_queue.h): one-shot events
// in one, timer entries in the other, so the few near packet events never
// sift through thousands of parked RTOs. Dispatch order is what one heap
// holding both would give. Callers that know their peak event population
// can reserve_events() up front so the heaps and slab never grow mid-run.
//
// Self-profiling: every event carries an EventCategory and the loop keeps an
// always-on per-category dispatch counter (a single array increment — see
// BM_TracerOverhead for the gate proving it is free). set_profiling(true)
// additionally buckets wall time per category; that one costs two clock
// reads per event, so it is opt-in.
//
// Observability: the loop optionally carries a borrowed obs::Hub pointer so
// components constructed against this Simulator can discover the hub without
// threading it through every constructor. The kernel itself never
// dereferences the hub — sim stays dependency-free of obs.
//
// Packet storage: the loop owns the network layer's packet pool
// (net::packet_pool(sim) creates it on first use), so every packet in
// flight on one loop lives in one pool. Like the hub, the kernel never
// dereferences it.
//
// Auditing: the loop likewise carries a borrowed Auditor pointer (see
// sim/auditor.h). With one attached, every dispatch feeds the monotonic-time
// check, the livelock watchdog, and the execution budgets; detached (the
// default) costs a single predictable branch, and -DINCAST_AUDIT=OFF
// removes even that.
#ifndef INCAST_SIM_SIMULATOR_H_
#define INCAST_SIM_SIMULATOR_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/auditor.h"
#include "sim/event_category.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace incast::obs {
class FlowTracer;
class Hub;
}  // namespace incast::obs

namespace incast::net {
class PacketPool;
}  // namespace incast::net

namespace incast::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time. Advances only inside run()/run_until().
  [[nodiscard]] Time now() const noexcept { return now_; }

  // Capacity hint: pre-sizes the event heaps and callback slab for `n`
  // concurrently pending events (typically hosts x flows x a small timer
  // factor), so steady state never grows any of them.
  void reserve_events(std::size_t n) { queue_.reserve(n); }

  // Timestamp of the next pending event; Time::infinity() when idle.
  [[nodiscard]] Time next_event_time() const { return queue_.next_time(); }

  // Schedules `cb` at absolute time `at` (must be >= now()). `cb` is any
  // callable an InlineFunction can hold; it is built once, directly in the
  // event's slab slot.
  template <typename F>
  void schedule_at(Time at, F&& cb, EventCategory category = EventCategory::kGeneric) {
    assert(at >= now_ && "cannot schedule into the past");
    // In keyed mode an unkeyed schedule draws from the ambient lane, never
    // from the insertion counter: the two number spaces are unrelated.
    queue_.push_keyed(at, draw_key(), std::forward<F>(cb), category);
  }

  // Schedules `cb` after `delay` (must be >= 0).
  template <typename F>
  void schedule_in(Time delay, F&& cb, EventCategory category = EventCategory::kGeneric) {
    schedule_at(now_ + delay, std::forward<F>(cb), category);
  }

  // Keyed scheduling for the parallel engine (sim/domain.h). In keyed mode
  // equal-time events fire in ascending `key` order — the caller composes
  // keys from per-entity lanes so the order is decomposition-invariant.
  // When keyed ordering is off (the default), the key is ignored and these
  // behave exactly like schedule_at/schedule_in, so shared component code
  // can call them unconditionally.
  template <typename F>
  void schedule_at_keyed(Time at, std::uint64_t key, F&& cb,
                         EventCategory category = EventCategory::kGeneric) {
    assert(at >= now_ && "cannot schedule into the past");
    queue_.push_keyed(at, draw_key(key), std::forward<F>(cb), category);
  }
  template <typename F>
  void schedule_in_keyed(Time delay, std::uint64_t key, F&& cb,
                         EventCategory category = EventCategory::kGeneric) {
    schedule_at_keyed(now_ + delay, key, std::forward<F>(cb), category);
  }

  // Switches equal-time tie-breaking from the insertion counter to explicit
  // keys. Must be called before any event is scheduled; from then on plain
  // schedule_at/schedule_in draw keys from the ambient lane (lane 0 —
  // setup-time scheduling only; see sim/domain.h).
  void enable_keyed_ordering() noexcept {
    assert(events_pending() == 0 && events_processed_ == 0 &&
           "keyed ordering must be chosen before any event is scheduled");
    keyed_ = true;
  }
  [[nodiscard]] bool keyed_ordering() const noexcept { return keyed_; }

  // Runs until the event queue drains or stop() is called.
  void run();

  // Runs events with timestamp <= deadline, then sets now() = deadline.
  // Events scheduled beyond the deadline stay queued, so simulation can be
  // resumed with further run_until() calls.
  void run_until(Time deadline);

  // Runs every event with timestamp strictly below `end` and returns.
  // Unlike run_until() this neither clears stopped_ nor advances now() to
  // the boundary: it is the inner step of a conservative window [T, T+L),
  // called repeatedly by the parallel coordinator, and the clock must stay
  // at the last dispatched event so cross-window schedule_in() arithmetic
  // keeps its meaning.
  void run_window(Time end) {
    while (queue_.next_time() < end) dispatch_one();
  }

  // Moves the clock forward without running anything (used by the parallel
  // engine to finish a run at the deadline on domains that went idle).
  void advance_to(Time t) noexcept {
    if (t > now_) now_ = t;
  }

  // Requests that run()/run_until() return after the current event.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_processed() const noexcept { return events_processed_; }
  // Pending one-shot events plus armed timers.
  [[nodiscard]] std::size_t events_pending() const noexcept { return queue_.size(); }

  // Peak heap entries (both heaps together) and callback-slab high-water
  // mark since construction — the kernel's memory footprint, surfaced
  // through SweepRunner::RunStats and the sim.events.* metrics. The heaps
  // hold at most one entry per timer beyond the live events, plus orphans
  // not yet surfaced (sim/event_queue.h).
  [[nodiscard]] std::size_t peak_events_pending() const noexcept {
    return queue_.peak_pending();
  }
  [[nodiscard]] std::size_t slab_high_water() const noexcept {
    return queue_.slab_high_water();
  }

  // Dispatch counts bucketed by EventCategory (always maintained).
  [[nodiscard]] const EventCategoryCounts& events_by_category() const noexcept {
    return events_by_category_;
  }

  // Enables wall-time bucketing per category (steady_clock around each
  // callback). Off by default; dispatch counts are kept regardless.
  void set_profiling(bool enabled) noexcept { profiling_ = enabled; }
  [[nodiscard]] bool profiling() const noexcept { return profiling_; }

  // Wall nanoseconds spent inside callbacks per category; all zero unless
  // set_profiling(true) was active while events ran. Wall time never feeds
  // back into the simulation — determinism is unaffected.
  [[nodiscard]] const std::array<double, kNumEventCategories>& wall_ns_by_category()
      const noexcept {
    return wall_ns_by_category_;
  }

  // Borrowed observability hub; nullptr (the default) means "not observed"
  // and every instrumented component takes its zero-cost fast path.
  void set_hub(obs::Hub* hub) noexcept { hub_ = hub; }
  [[nodiscard]] obs::Hub* hub() const noexcept { return hub_; }

  // Borrowed invariant auditor; nullptr (the default) means "unaudited".
  // Components reach it through INCAST_AUDITOR(sim), which compiles to a
  // constant nullptr under -DINCAST_AUDIT=OFF.
  void set_auditor(Auditor* auditor) noexcept { auditor_ = auditor; }
  [[nodiscard]] Auditor* auditor() const noexcept { return auditor_; }

  // Borrowed flow-lifecycle tracer (obs/flow_trace.h); nullptr (the
  // default) means "no latency attribution". Like the hub, attach it
  // *before* building topology/senders — they cache the pointer at
  // construction. Components reach it through INCAST_FLOW_TRACER(sim).
  void set_flow_tracer(obs::FlowTracer* tracer) noexcept { flow_tracer_ = tracer; }
  [[nodiscard]] obs::FlowTracer* flow_tracer() const noexcept { return flow_tracer_; }

  // The loop's packet pool; nullptr until net::packet_pool(sim) creates it
  // and hands it over here with its deleter.
  [[nodiscard]] net::PacketPool* packet_pool() const noexcept { return packet_pool_.get(); }
  void adopt_packet_pool(net::PacketPool* pool, void (*destroy)(net::PacketPool*)) {
    packet_pool_ = std::unique_ptr<net::PacketPool, void (*)(net::PacketPool*)>{pool, destroy};
  }

 private:
  friend class Timer;

  void dispatch_one();

  // The tie-break a schedule or timer arm draws: the key in keyed mode
  // (lane 0's ambient counter when none is given), otherwise the queue's
  // insertion counter.
  [[nodiscard]] std::uint64_t draw_key(std::uint64_t key) {
    return keyed_ ? key : queue_.draw_seq();
  }
  [[nodiscard]] std::uint64_t draw_key() {
    return keyed_ ? ambient_key_++ : queue_.draw_seq();
  }

  EventQueue queue_;
  Time now_{Time::zero()};
  bool stopped_{false};
  bool keyed_{false};
  bool profiling_{false};
  std::uint64_t ambient_key_{0};
  std::uint64_t events_processed_{0};
  EventCategoryCounts events_by_category_{};
  std::array<double, kNumEventCategories> wall_ns_by_category_{};
  obs::Hub* hub_{nullptr};
  Auditor* auditor_{nullptr};
  obs::FlowTracer* flow_tracer_{nullptr};
  std::unique_ptr<net::PacketPool, void (*)(net::PacketPool*)> packet_pool_{nullptr,
                                                                             nullptr};
};

inline Timer::~Timer() { sim_->queue_.forget(*this); }

inline void Timer::arm_at(Time at) {
  assert(at >= sim_->now_ && "cannot arm a timer in the past");
  sim_->queue_.arm(*this, at, sim_->draw_key());
}

inline void Timer::arm_at(Time at, std::uint64_t key) {
  assert(at >= sim_->now_ && "cannot arm a timer in the past");
  sim_->queue_.arm(*this, at, sim_->draw_key(key));
}

inline void Timer::arm_in(Time delay) { arm_at(sim_->now_ + delay); }

inline void Timer::arm_in(Time delay, std::uint64_t key) { arm_at(sim_->now_ + delay, key); }

inline void Timer::disarm() noexcept { sim_->queue_.disarm(*this); }

}  // namespace incast::sim

#endif  // INCAST_SIM_SIMULATOR_H_
