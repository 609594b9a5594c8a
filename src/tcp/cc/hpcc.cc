#include "tcp/cc/hpcc.h"

#include <algorithm>

namespace incast::tcp {

bool HpccCc::measure_utilization(const net::IntStack& stack, double& out) {
  bool any = false;
  double max_util = 0.0;

  for (int j = 0; j < stack.num_hops; ++j) {
    const net::IntHopRecord& rec = stack.hops[static_cast<std::size_t>(j)];
    HopSample& prev = prev_[static_cast<std::size_t>(j)];
    if (prev.valid && rec.timestamp_ns > prev.timestamp_ns && rec.link_bps > 0) {
      const double dt_sec =
          static_cast<double>(rec.timestamp_ns - prev.timestamp_ns) * 1e-9;
      const double tx_rate_bps =
          static_cast<double>(rec.tx_bytes - prev.tx_bytes) * 8.0 / dt_sec;
      const double bdp_bytes =
          static_cast<double>(rec.link_bps) / 8.0 * config_.base_rtt.sec();
      const double util = static_cast<double>(rec.qlen_bytes) / bdp_bytes +
                          tx_rate_bps / static_cast<double>(rec.link_bps);
      max_util = std::max(max_util, util);
      any = true;
    }
    prev = HopSample{rec.tx_bytes, rec.timestamp_ns, true};
  }

  if (any) out = max_util;
  return any;
}

void HpccCc::on_ack(const AckEvent& ev) {
  if (ev.int_stack == nullptr || ev.int_stack->num_hops == 0) return;

  double util = 0.0;
  if (!measure_utilization(*ev.int_stack, util)) return;
  // Guard against division blow-ups when the path is idle.
  util = std::max(util, 0.01);
  last_util_ = util;

  const double wai = static_cast<double>(kHpccWaiBytes);
  const double max_cwnd =
      config_.max_cwnd_segments * static_cast<double>(config_.mss_bytes);
  double target = reference_cwnd_ * kHpccEta / util + wai;
  target = std::clamp(target, min_cwnd_bytes(), max_cwnd);

  // Growth on an application-limited ACK would be validated against demand
  // that does not exist (RFC 7661); only decreases are applied.
  if (ev.app_limited && target > cwnd_) return;

  if (util >= kHpccEta || inc_stage_ >= kHpccMaxStage) {
    cwnd_ = target;
    if (ev.now - last_reference_update_ >= config_.base_rtt) {
      reference_cwnd_ = cwnd_;
      last_reference_update_ = ev.now;
      inc_stage_ = 0;
    }
  } else {
    // Below target with probing budget left: additive-only stage.
    cwnd_ = std::clamp(std::max(target, cwnd_ + wai), min_cwnd_bytes(), max_cwnd);
    if (ev.now - last_reference_update_ >= config_.base_rtt) {
      reference_cwnd_ = cwnd_;
      last_reference_update_ = ev.now;
      ++inc_stage_;
    }
  }
}

void HpccCc::on_loss(std::int64_t /*in_flight*/) {
  cwnd_ = std::max(cwnd_ * 0.5, min_cwnd_bytes());
  reference_cwnd_ = cwnd_;
}

void HpccCc::on_timeout() {
  cwnd_ = std::max(min_cwnd_bytes(), static_cast<double>(config_.mss_bytes));
  reference_cwnd_ = cwnd_;
  inc_stage_ = 0;
}

}  // namespace incast::tcp
