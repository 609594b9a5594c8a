#include "sim/simulator.h"

#include <cassert>
#include <chrono>

namespace incast::sim {

void Simulator::dispatch_one() {
  auto ev = queue_.pop();
  assert(ev.at >= now_);
#if INCAST_AUDIT_ENABLED
  // Monotonic-time check, livelock watchdog, and execution budgets. May
  // throw (strict violation / budget / cancellation); the event is then
  // lost, which is fine — an aborted run's partial state is never used.
  if (auditor_ != nullptr) auditor_->on_dispatch(now_, ev.at);
#endif
  now_ = ev.at;
  ++events_processed_;
  ++events_by_category_[static_cast<std::size_t>(ev.category)];
  if (profiling_) {
    const auto t0 = std::chrono::steady_clock::now();
    ev.cb();
    const auto t1 = std::chrono::steady_clock::now();
    wall_ns_by_category_[static_cast<std::size_t>(ev.category)] +=
        std::chrono::duration<double, std::nano>(t1 - t0).count();
  } else {
    ev.cb();
  }
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    dispatch_one();
  }
}

void Simulator::run_until(Time deadline) {
  stopped_ = false;
  while (!stopped_) {
    const Time next = queue_.next_time();
    if (next > deadline) break;
    dispatch_one();
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace incast::sim
