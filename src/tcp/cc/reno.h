// RenoCc: TCP NewReno congestion control (RFC 5681/6582), optionally with
// classic ECN response (RFC 3168: treat ECN-Echo like a loss, once per RTT,
// but without retransmitting).
#ifndef INCAST_TCP_CC_RENO_H_
#define INCAST_TCP_CC_RENO_H_

#include "tcp/cc/window_cc.h"

namespace incast::tcp {

class RenoCc final : public WindowCc {
 public:
  RenoCc(const CcConfig& config, std::int64_t mss_bytes, bool ecn_enabled) noexcept
      : WindowCc{config, mss_bytes}, ecn_enabled_{ecn_enabled} {}

  void on_ack(const AckEvent& ev) override;
  void on_loss(std::int64_t in_flight) override;

  [[nodiscard]] std::string name() const override {
    return ecn_enabled_ ? "reno-ecn" : "reno";
  }

 private:
  bool ecn_enabled_;
  // One ECN-triggered reduction per window: suppressed until snd_una passes
  // the cwnd that was outstanding when we last reduced.
  std::int64_t cwr_end_seq_{-1};
};

}  // namespace incast::tcp

#endif  // INCAST_TCP_CC_RENO_H_
