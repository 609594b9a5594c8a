#include "tcp/cc/swift.h"

#include <algorithm>

namespace incast::tcp {

void SwiftCc::decrease(double factor, sim::Time now, sim::Time rtt) noexcept {
  // At most one multiplicative decrease per RTT (the first is always
  // allowed).
  if (has_decreased_ && now - last_decrease_ < rtt) return;
  has_decreased_ = true;
  last_decrease_ = now;
  factor = std::max(factor, 1.0 - kSwiftMaxMdf);
  cwnd_ = std::max(cwnd_ * factor, min_cwnd_bytes());
}

void SwiftCc::on_ack(const AckEvent& ev) {
  if (ev.rtt_valid) last_rtt_ = ev.rtt;
  if (last_rtt_ == sim::Time::zero() || ev.newly_acked_bytes <= 0) return;

  const double delay = last_rtt_.sec();
  const double target = config_.target_delay.sec();
  const auto mss = static_cast<double>(config_.mss_bytes);

  if (delay <= target) {
    // Additive increase: ~ai segments per RTT. Above one packet the
    // per-ACK share is ai * mss * acked / cwnd; below it each (rare) ACK
    // adds a full ai segment, as in Swift.
    const double ai = kSwiftAdditiveIncreaseSegments * mss;
    if (cwnd_ >= mss) {
      cwnd_ += ai * static_cast<double>(ev.newly_acked_bytes) / cwnd_;
    } else {
      cwnd_ += ai;
    }
  } else {
    decrease(1.0 - kSwiftBeta * (delay - target) / delay, ev.now, last_rtt_);
  }
}

void SwiftCc::on_loss(std::int64_t /*in_flight*/) {
  // Retransmit-triggered decrease: applied immediately (losses are a
  // stronger signal than delay, no per-RTT gating).
  cwnd_ = std::max(cwnd_ * (1.0 - kSwiftMaxMdf), min_cwnd_bytes());
}

void SwiftCc::on_timeout() {
  cwnd_ = std::max(min_cwnd_bytes(), cwnd_ * (1.0 - kSwiftMaxMdf));
}

}  // namespace incast::tcp
