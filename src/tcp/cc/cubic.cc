#include "tcp/cc/cubic.h"

#include <algorithm>
#include <cmath>

#include "tcp/cc/dcqcn.h"
#include "tcp/cc/dctcp.h"
#include "tcp/cc/hpcc.h"
#include "tcp/cc/reno.h"
#include "tcp/cc/swift.h"

namespace incast::tcp {

namespace {

// RFC 9438's constants: the cubic scaling factor C and the multiplicative
// decrease factor beta_cubic.
constexpr double kCubicC = 0.4;
constexpr double kCubicBeta = 0.7;

}  // namespace

void CubicCc::start_epoch(sim::Time now) noexcept {
  // W_max was recorded at the last decrease; if we have grown past it since
  // (e.g. after an idle period), treat the current window as the new W_max.
  const double current = static_cast<double>(cwnd_bytes()) / static_cast<double>(mss());
  w_max_segments_ = std::max(w_max_segments_, current);
  epoch_start_ = now;
  epoch_active_ = true;
}

void CubicCc::on_ack(const AckEvent& ev) {
  if (ev.newly_acked_bytes <= 0) return;

  if (in_slow_start()) {
    increase_on_ack(ev.newly_acked_bytes);
    return;
  }
  if (!epoch_active_) {
    start_epoch(ev.now);
  }

  const double t = (ev.now - epoch_start_).sec();
  const double k = std::cbrt(w_max_segments_ * (1.0 - kCubicBeta) / kCubicC);
  const double target_segments = kCubicC * std::pow(t - k, 3.0) + w_max_segments_;
  const auto target_bytes =
      static_cast<std::int64_t>(target_segments * static_cast<double>(mss()));

  if (target_bytes > cwnd_bytes()) {
    // Approach the cubic target smoothly: close the gap by cwnd/target per
    // ACK rather than jumping (RFC 9438 §4.4's per-ACK increment).
    const std::int64_t gap = target_bytes - cwnd_bytes();
    const std::int64_t step = std::max<std::int64_t>(
        gap * ev.newly_acked_bytes / std::max<std::int64_t>(cwnd_bytes(), mss()), 0);
    set_cwnd(cwnd_bytes() + std::min(step, mss()));
  }
}

void CubicCc::on_loss(std::int64_t /*in_flight*/) {
  const double current = static_cast<double>(cwnd_bytes()) / static_cast<double>(mss());
  w_max_segments_ = current;
  epoch_active_ = false;  // the next ACK restarts the epoch with this W_max
  decrease_to(static_cast<std::int64_t>(current * kCubicBeta * static_cast<double>(mss())));
}

void CubicCc::on_timeout() {
  WindowCc::on_timeout();
  epoch_active_ = false;
  w_max_segments_ = 0.0;
}

std::unique_ptr<CongestionControl> make_congestion_control(CcAlgorithm algo,
                                                           const CcConfig& config,
                                                           std::int64_t mss_bytes) {
  switch (algo) {
    case CcAlgorithm::kReno:
      return std::make_unique<RenoCc>(config, mss_bytes, /*ecn_enabled=*/false);
    case CcAlgorithm::kRenoEcn:
      return std::make_unique<RenoCc>(config, mss_bytes, /*ecn_enabled=*/true);
    case CcAlgorithm::kDctcp:
      return std::make_unique<DctcpCc>(config, mss_bytes);
    case CcAlgorithm::kCubic:
      return std::make_unique<CubicCc>(config, mss_bytes);
    case CcAlgorithm::kSwift:
      return std::make_unique<SwiftCc>(SwiftConfig{.target_delay = config.swift_target_delay,
                                                   .mss_bytes = mss_bytes,
                                                   .initial_window_segments =
                                                       config.initial_window_segments});
    case CcAlgorithm::kHpcc:
      return std::make_unique<HpccCc>(
          HpccConfig{.mss_bytes = mss_bytes,
                     .initial_window_segments = config.initial_window_segments});
    case CcAlgorithm::kDcqcn:
      return std::make_unique<DcqcnCc>(config, mss_bytes);
  }
  return std::make_unique<DctcpCc>(config, mss_bytes);
}

const char* to_string(CcAlgorithm algo) noexcept {
  switch (algo) {
    case CcAlgorithm::kReno:
      return "reno";
    case CcAlgorithm::kRenoEcn:
      return "reno-ecn";
    case CcAlgorithm::kDctcp:
      return "dctcp";
    case CcAlgorithm::kCubic:
      return "cubic";
    case CcAlgorithm::kSwift:
      return "swift";
    case CcAlgorithm::kHpcc:
      return "hpcc";
    case CcAlgorithm::kDcqcn:
      return "dcqcn";
  }
  return "unknown";
}

}  // namespace incast::tcp
