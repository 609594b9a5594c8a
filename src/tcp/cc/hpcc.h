// HpccCc: High Precision Congestion Control (Li et al., SIGCOMM 2019),
// simplified — one of the INT-based techniques the paper cites as handling
// hundreds-to-thousands-of-flow incasts at the cost of switch support.
//
// Every ACK echoes per-hop INT records (queue length, cumulative tx bytes,
// link rate, timestamp). For each hop the sender estimates utilization
//
//   U_j = qlen_j / (B_j * T)  +  txRate_j / B_j
//
// where T is the base RTT and txRate_j is computed from consecutive INT
// samples of the same hop. The window update is multiplicative toward the
// target utilization eta with a small additive probe:
//
//   W = W_c * eta / max_j(U_j) + W_ai
//
// with W_c (the reference window) advanced at most once per RTT, and up to
// kHpccMaxStage additive-only stages between multiplicative updates. Like
// Swift, the window may fall below one MSS; the sender then paces.
#ifndef INCAST_TCP_CC_HPCC_H_
#define INCAST_TCP_CC_HPCC_H_

#include <array>

#include "tcp/congestion_control.h"

namespace incast::tcp {

// HPCC's fixed parameters.
inline constexpr double kHpccEta = 0.95;  // target link utilization
inline constexpr int kHpccMaxStage = 5;   // additive-only stages per W_c update
// Additive increase per update (N flows add ~N*wai of standing queue).
inline constexpr std::int64_t kHpccWaiBytes = 80;
inline constexpr double kHpccMinCwndSegments = 0.01;  // floor, far below one packet

struct HpccConfig {
  sim::Time base_rtt{sim::Time::microseconds(30)};
  // Upper clamp: HPCC initializes W to ~BDP and never needs more than the
  // path BDP / eta; without a cap, near-idle INT samples (U ~ 0) would let
  // an app-limited flow multiply its window unboundedly.
  double max_cwnd_segments{32.0};
  std::int64_t mss_bytes{1460};
  std::int64_t initial_window_segments{10};
};

class HpccCc final : public CongestionControl {
 public:
  explicit HpccCc(const HpccConfig& config) noexcept
      : config_{config},
        cwnd_{static_cast<double>(config.initial_window_segments * config.mss_bytes)},
        reference_cwnd_{cwnd_} {}

  void on_ack(const AckEvent& ev) override;
  void on_loss(std::int64_t in_flight) override;
  void on_timeout() override;
  void on_recovery_exit() override {}

  [[nodiscard]] std::int64_t cwnd_bytes() const override {
    return static_cast<std::int64_t>(cwnd_);
  }
  [[nodiscard]] std::int64_t ssthresh_bytes() const override { return 0; }
  [[nodiscard]] bool in_slow_start() const override { return false; }
  [[nodiscard]] std::string name() const override { return "hpcc"; }
  void reset_to_initial_window() override {
    cwnd_ = static_cast<double>(config_.initial_window_segments * config_.mss_bytes);
    reference_cwnd_ = cwnd_;
  }

  // Most recent max-hop utilization estimate (diagnostics).
  [[nodiscard]] double last_utilization() const noexcept { return last_util_; }

 private:
  [[nodiscard]] double min_cwnd_bytes() const noexcept {
    return kHpccMinCwndSegments * static_cast<double>(config_.mss_bytes);
  }
  // Computes max-hop utilization from the echoed INT stack; returns false
  // when no estimate is possible yet (first sample of a hop).
  [[nodiscard]] bool measure_utilization(const net::IntStack& stack, double& out);

  HpccConfig config_;
  double cwnd_;            // bytes, may be fractional
  double reference_cwnd_;  // W_c
  int inc_stage_{0};
  double last_util_{0.0};
  sim::Time last_reference_update_{sim::Time::zero()};

  // Previous INT sample per hop index, for txRate estimation.
  struct HopSample {
    std::int64_t tx_bytes{0};
    std::int64_t timestamp_ns{0};
    bool valid{false};
  };
  std::array<HopSample, net::kMaxIntHops> prev_{};
};

}  // namespace incast::tcp

#endif  // INCAST_TCP_CC_HPCC_H_
