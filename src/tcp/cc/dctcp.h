// DctcpCc: Data Center TCP congestion control (Alizadeh et al., RFC 8257).
//
// The sender keeps an EWMA `alpha` of the fraction of acked bytes that
// carried ECN-Echo, updated once per window of data:
//
//   F     = marked_bytes / acked_bytes        (over the last window)
//   alpha = (1 - g) * alpha + g * F
//
// and on congestion (any ECE seen in a window) reduces proportionally, at
// most once per window:
//
//   cwnd = max(cwnd * (1 - alpha / 2), 1 MSS)
//
// The 1-MSS floor is the root of the paper's Mode 2 "degenerate point"
// (Section 4.1.2): with K flows at the floor, the bottleneck queue cannot
// fall below K - BDP packets no matter what the marking says.
#ifndef INCAST_TCP_CC_DCTCP_H_
#define INCAST_TCP_CC_DCTCP_H_

#include "tcp/cc/window_cc.h"

namespace incast::tcp {

class DctcpCc final : public WindowCc {
 public:
  DctcpCc(const CcConfig& config, std::int64_t mss_bytes) noexcept
      : WindowCc{config, mss_bytes}, alpha_{config.dctcp_initial_alpha} {}

  void on_ack(const AckEvent& ev) override;
  void on_loss(std::int64_t in_flight) override;
  void on_timeout() override;

  [[nodiscard]] std::string name() const override { return "dctcp"; }

  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  void finish_observation_window(const AckEvent& ev);

  double alpha_;
  // Byte counters over the current observation window.
  std::int64_t acked_bytes_{0};
  std::int64_t marked_bytes_{0};
  // snd_nxt value at which the current observation window ends. Starts at
  // 0 (the stream origin), mirroring RFC 8257's next_seq = SND.NXT at
  // connection establishment: the first ACK closes a degenerate first
  // window and aligns subsequent windows to snd_nxt.
  std::int64_t window_end_seq_{0};
  // One multiplicative decrease per window.
  std::int64_t cwr_end_seq_{-1};
};

}  // namespace incast::tcp

#endif  // INCAST_TCP_CC_DCTCP_H_
