// WindowCc: shared machinery for the window-based CCAs (Reno, DCTCP, CUBIC).
//
// Implements slow start, congestion avoidance byte counting, the timeout
// collapse to 1 MSS, and the cwnd floor. Subclasses specialize the
// multiplicative-decrease rule and the response to ECN-Echo.
#ifndef INCAST_TCP_CC_WINDOW_CC_H_
#define INCAST_TCP_CC_WINDOW_CC_H_

#include <algorithm>
#include <limits>

#include "tcp/congestion_control.h"

namespace incast::tcp {

class WindowCc : public CongestionControl {
 public:
  WindowCc(const CcConfig& config, std::int64_t mss_bytes) noexcept
      : config_{config},
        mss_{mss_bytes},
        cwnd_{config.initial_window_segments * mss_bytes},
        ssthresh_{std::numeric_limits<std::int64_t>::max()} {}

  [[nodiscard]] std::int64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] std::int64_t ssthresh_bytes() const override { return ssthresh_; }
  [[nodiscard]] bool in_slow_start() const override { return cwnd_ < ssthresh_; }

  void on_timeout() override {
    // RFC 5681: ssthresh = max(FlightSize/2, 2 MSS) is applied by the
    // caller-supplied in_flight at loss time; on RTO we conservatively use
    // cwnd/2 since flight collapses to the retransmitted segment.
    ssthresh_ = std::max(cwnd_ / 2, 2 * mss());
    cwnd_ = mss();  // RFC 5681: LW = 1 segment
  }

  void on_recovery_exit() override {
    // Deflate to ssthresh (NewReno exit).
    cwnd_ = std::max(ssthresh_, mss());
  }

  void reset_to_initial_window() override {
    cwnd_ = config_.initial_window_segments * mss();
  }

 protected:
  [[nodiscard]] std::int64_t mss() const noexcept { return mss_; }
  [[nodiscard]] const CcConfig& config() const noexcept { return config_; }

  // Standard additive increase, called by subclasses for non-duplicate ACKs.
  void increase_on_ack(std::int64_t newly_acked_bytes) noexcept {
    if (newly_acked_bytes <= 0) return;
    if (in_slow_start()) {
      // Slow start: one MSS per MSS acked, at most one MSS per ACK (ABC L=1).
      cwnd_ += std::min(newly_acked_bytes, mss());
    } else {
      // Congestion avoidance, byte-counted: ~1 MSS per RTT.
      increase_credit_ += newly_acked_bytes;
      const std::int64_t step = std::max<std::int64_t>(cwnd_, mss());
      if (increase_credit_ >= step) {
        increase_credit_ -= step;
        cwnd_ += mss();
      }
    }
  }

  // Multiplicative decrease to `target`, with the paper's 1-MSS floor.
  void decrease_to(std::int64_t target) noexcept {
    cwnd_ = std::max(target, mss());
    ssthresh_ = std::max(cwnd_, mss());
  }

  // Direct cwnd override for CCAs whose growth is not purely additive
  // (CUBIC). Floors at 1 MSS.
  void set_cwnd(std::int64_t v) noexcept { cwnd_ = std::max(v, mss()); }

 private:
  CcConfig config_;
  std::int64_t mss_;
  std::int64_t cwnd_;
  std::int64_t ssthresh_;
  std::int64_t increase_credit_{0};
};

}  // namespace incast::tcp

#endif  // INCAST_TCP_CC_WINDOW_CC_H_
