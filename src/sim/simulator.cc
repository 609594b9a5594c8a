#include "sim/simulator.h"

#include <cassert>
#include <chrono>

namespace incast::sim {

template <typename Due>
bool Simulator::dispatch_if(Due due) {
  return queue_.pop(due, [this](Time at, EventCategory category, auto&& fire) {
    assert(at >= now_);
#if INCAST_AUDIT_ENABLED
    // Monotonic-time check, livelock watchdog, and execution budgets. May
    // throw (strict violation / budget / cancellation); the event is then
    // lost, which is fine — an aborted run's partial state is never used.
    if (auditor_ != nullptr) auditor_->on_dispatch(now_, at);
#endif
    now_ = at;
    ++events_processed_;
    ++events_by_category_[static_cast<std::size_t>(category)];
    if (profiling_) {
      const auto t0 = std::chrono::steady_clock::now();
      fire();
      const auto t1 = std::chrono::steady_clock::now();
      wall_ns_by_category_[static_cast<std::size_t>(category)] +=
          std::chrono::duration<double, std::nano>(t1 - t0).count();
    } else {
      fire();
    }
  });
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && dispatch_if([](Time) { return true; })) {
  }
}

void Simulator::run_until(Time deadline) {
  stopped_ = false;
  while (!stopped_ && dispatch_if([deadline](Time at) { return at <= deadline; })) {
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
}

void Simulator::run_window(Time end) {
  while (dispatch_if([end](Time at) { return at < end; })) {
  }
}

}  // namespace incast::sim
