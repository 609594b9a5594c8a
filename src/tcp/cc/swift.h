// SwiftCc: a delay-based CCA in the style of Swift (Kumar et al., SIGCOMM
// 2020), the alternative the paper discusses in Section 5.2.
//
// Swift targets a fixed end-to-end delay: below target it adds roughly one
// `ai` segment per RTT; above target it decreases multiplicatively in
// proportion to the overshoot, at most once per RTT. Its distinguishing
// feature for incast is that cwnd may drop BELOW one packet: the sender
// then paces, emitting one packet every (mss / cwnd) RTTs, so thousands of
// flows can share a queue that window-based DCTCP cannot control (whose
// 1-MSS floor is the paper's "degenerate point").
//
// The paper also lists Swift's costs — pacing starves receiver-side
// batching and staleness grows with the probe interval — which the
// extension bench can now exhibit quantitatively.
#ifndef INCAST_TCP_CC_SWIFT_H_
#define INCAST_TCP_CC_SWIFT_H_

#include "tcp/congestion_control.h"

namespace incast::tcp {

// Swift's fixed parameters.
inline constexpr double kSwiftAdditiveIncreaseSegments = 1.0;  // ai, per RTT below target
inline constexpr double kSwiftBeta = 0.8;               // proportional decrease strength
inline constexpr double kSwiftMaxMdf = 0.5;             // max multiplicative decrease per RTT
inline constexpr double kSwiftMinCwndSegments = 0.01;   // Swift allows far below one packet

struct SwiftConfig {
  sim::Time target_delay{sim::Time::microseconds(60)};  // ~2x base RTT here
  std::int64_t mss_bytes{1460};
  std::int64_t initial_window_segments{10};
};

class SwiftCc final : public CongestionControl {
 public:
  explicit SwiftCc(const SwiftConfig& config) noexcept
      : config_{config},
        cwnd_{static_cast<double>(config.initial_window_segments * config.mss_bytes)} {}

  void on_ack(const AckEvent& ev) override;
  void on_loss(std::int64_t in_flight) override;
  void on_timeout() override;
  void on_recovery_exit() override {}

  [[nodiscard]] std::int64_t cwnd_bytes() const override {
    return static_cast<std::int64_t>(cwnd_);
  }
  [[nodiscard]] std::int64_t ssthresh_bytes() const override { return 0; }
  [[nodiscard]] bool in_slow_start() const override { return false; }
  [[nodiscard]] std::string name() const override { return "swift"; }

  void reset_to_initial_window() override {
    cwnd_ = static_cast<double>(config_.initial_window_segments * config_.mss_bytes);
  }

  [[nodiscard]] const SwiftConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] double min_cwnd_bytes() const noexcept {
    return kSwiftMinCwndSegments * static_cast<double>(config_.mss_bytes);
  }
  void decrease(double factor, sim::Time now, sim::Time rtt) noexcept;

  SwiftConfig config_;
  double cwnd_;  // bytes; may be fractional (< 1 MSS)
  bool has_decreased_{false};
  sim::Time last_decrease_{sim::Time::zero()};
  sim::Time last_rtt_{sim::Time::zero()};
};

}  // namespace incast::tcp

#endif  // INCAST_TCP_CC_SWIFT_H_
