// CubicCc: TCP CUBIC congestion control (RFC 9438), simplified.
//
// Included as a loss-based baseline for the CCA-comparison ablation: CUBIC
// ignores ECN, so under incast it fills the queue to the tail-drop point —
// illustrating why datacenters deploy DCTCP instead.
//
// Window growth in congestion avoidance follows the cubic function
//   W(t) = C * (t - K)^3 + W_max,   K = cbrt(W_max * (1 - beta) / C)
// with W in MSS units and t in seconds since the last decrease.
#ifndef INCAST_TCP_CC_CUBIC_H_
#define INCAST_TCP_CC_CUBIC_H_

#include "tcp/cc/window_cc.h"

namespace incast::tcp {

class CubicCc final : public WindowCc {
 public:
  CubicCc(const CcConfig& config, std::int64_t mss_bytes) noexcept
      : WindowCc{config, mss_bytes} {}

  void on_ack(const AckEvent& ev) override;
  void on_loss(std::int64_t in_flight) override;
  void on_timeout() override;

  [[nodiscard]] std::string name() const override { return "cubic"; }

 private:
  void start_epoch(sim::Time now) noexcept;

  // Cubic state, in MSS units.
  double w_max_segments_{0.0};
  sim::Time epoch_start_{sim::Time::zero()};
  bool epoch_active_{false};
};

}  // namespace incast::tcp

#endif  // INCAST_TCP_CC_CUBIC_H_
