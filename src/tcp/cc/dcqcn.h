// DcqcnCc: a window-based approximation of DCQCN (Zhu et al., SIGCOMM'15).
//
// Real DCQCN is a *rate*-based scheme running in the NIC: the switch marks
// with a RED-like kmin/kmax probability curve, the receiver coalesces marks
// into CNPs (at most one per 50 us), and the sender keeps an EWMA `alpha`
// updated on a 55 us timer rather than per window of data:
//
//   on CNP:            rate  = rate * (1 - alpha / 2), at most once per
//                      rate-decrease interval (~50 us)
//   every 55 us:       alpha = (1 - g) * alpha + g * [CNP seen this
//                      interval], with g = 1/256
//
// This class transplants those time-domain rules onto the repo's
// window-based sender so DCQCN slots in wherever DCTCP/Swift/HPCC do: the
// switch side is the queue's step threshold K (net/queue.h), not a
// kmin/kmax curve; ECE on an ACK stands in for the CNP, the multiplicative
// decrease applies to cwnd, and recovery between decreases uses the
// standard additive increase (a stand-in for DCQCN's
// fast-recovery/additive-increase rate stages).
// The two differences from DCTCP that matter for the lossless experiments
// survive the transplant exactly:
//
//  - alpha moves on wall-clock intervals, not per-RTT windows, so under
//    PFC pauses (where the RTT balloons and windows stall) alpha keeps
//    converging instead of freezing; and
//  - the decrease is gated by elapsed time, not by a window of data, so a
//    burst of marks within one RTT cuts at most once per 50 us rather
//    than once per window.
#ifndef INCAST_TCP_CC_DCQCN_H_
#define INCAST_TCP_CC_DCQCN_H_

#include "tcp/cc/window_cc.h"

namespace incast::tcp {

// The SIGCOMM'15 defaults: a slow gain (1/256 vs DCTCP's 1/16) on a 55 us
// alpha timer, alpha starting at 1, and decreases gated to one per 50 us.
inline constexpr double kDcqcnGain = 1.0 / 256.0;
inline constexpr double kDcqcnInitialAlpha = 1.0;
inline constexpr sim::Time kDcqcnAlphaUpdateInterval = sim::Time::microseconds(55);
inline constexpr sim::Time kDcqcnRateDecreaseInterval = sim::Time::microseconds(50);

class DcqcnCc final : public WindowCc {
 public:
  DcqcnCc(const CcConfig& config, std::int64_t mss_bytes) noexcept
      : WindowCc{config, mss_bytes} {}

  void on_ack(const AckEvent& ev) override;
  void on_loss(std::int64_t in_flight) override;
  void on_timeout() override;

  [[nodiscard]] std::string name() const override { return "dcqcn"; }

  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  // Rolls the alpha EWMA forward over every whole update interval that has
  // elapsed since the last roll (marks seen only in the most recent one).
  void advance_alpha(sim::Time now);

  double alpha_{kDcqcnInitialAlpha};
  bool interval_start_valid_{false};
  sim::Time interval_start_{};   // start of the current alpha interval
  bool marked_this_interval_{false};
  bool decrease_time_valid_{false};
  sim::Time last_decrease_{};    // last multiplicative decrease
};

}  // namespace incast::tcp

#endif  // INCAST_TCP_CC_DCQCN_H_
