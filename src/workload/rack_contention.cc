#include "workload/rack_contention.h"

namespace incast::workload {

void RackContention::start(sim::Time until) {
  const sim::Time gap = sim::Time::seconds(rng_.exponential(config_.mean_off.sec()));
  if (sim_.now() + gap >= until) return;
  sim_.schedule_in(gap, [this, until] { toggle(until); }, sim::EventCategory::kWorkload);
}

void RackContention::toggle(sim::Time until) {
  if (!on_) {
    on_ = true;
    const double fraction = rng_.uniform(kMinFraction, kMaxFraction);
    pool_.set_external_usage(
        static_cast<std::int64_t>(fraction * static_cast<double>(pool_.total_bytes())));
    const sim::Time hold = sim::Time::seconds(rng_.exponential(config_.mean_on.sec()));
    sim_.schedule_in(hold, [this, until] { toggle(until); }, sim::EventCategory::kWorkload);
  } else {
    on_ = false;
    pool_.set_external_usage(0);
    const sim::Time gap = sim::Time::seconds(rng_.exponential(config_.mean_off.sec()));
    if (sim_.now() + gap < until) {
      sim_.schedule_in(gap, [this, until] { toggle(until); }, sim::EventCategory::kWorkload);
    }
  }
}

}  // namespace incast::workload
