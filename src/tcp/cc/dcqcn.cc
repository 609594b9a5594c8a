#include "tcp/cc/dcqcn.h"

#include <algorithm>

namespace incast::tcp {

void DcqcnCc::advance_alpha(sim::Time now) {
  if (!interval_start_valid_) {
    interval_start_valid_ = true;
    interval_start_ = now;
    return;
  }
  // Step through every full interval boundary we crossed. Marks belong to
  // the interval they arrived in; the (possibly many) silent intervals
  // after it each decay alpha toward zero, exactly as the 55 us timer
  // would have.
  while (now - interval_start_ >= kDcqcnAlphaUpdateInterval) {
    alpha_ = (1.0 - kDcqcnGain) * alpha_ + kDcqcnGain * (marked_this_interval_ ? 1.0 : 0.0);
    marked_this_interval_ = false;
    interval_start_ = interval_start_ + kDcqcnAlphaUpdateInterval;
  }
}

void DcqcnCc::on_ack(const AckEvent& ev) {
  advance_alpha(ev.now);
  if (ev.ece) marked_this_interval_ = true;

  if (ev.ece) {
    // CNP-equivalent: cut by alpha/2, but no more than once per
    // rate-decrease interval — DCQCN's NP-side CNP pacing and RP-side
    // decrease timer collapsed into one gate.
    const bool gate_open =
        !decrease_time_valid_ ||
        ev.now - last_decrease_ >= kDcqcnRateDecreaseInterval;
    if (gate_open) {
      decrease_time_valid_ = true;
      last_decrease_ = ev.now;
      const auto reduced = static_cast<std::int64_t>(
          static_cast<double>(cwnd_bytes()) * (1.0 - alpha_ / 2.0));
      decrease_to(reduced);
      return;
    }
  }

  increase_on_ack(ev.newly_acked_bytes);
}

void DcqcnCc::on_loss(std::int64_t in_flight) {
  // DCQCN assumes a lossless fabric; when packets do die (trimming, fault
  // injection) respond like conventional TCP so recovery stays stable.
  decrease_to(std::max(in_flight / 2, 2 * mss()));
}

void DcqcnCc::on_timeout() {
  WindowCc::on_timeout();
}

}  // namespace incast::tcp
