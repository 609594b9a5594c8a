// CongestionControl: the pluggable sender-side congestion control interface.
//
// The TcpSender owns the reliability machinery (sequencing, retransmission,
// RTO) and reports events to a CongestionControl, which in turn owns cwnd
// and ssthresh. This split mirrors the Linux tcp_congestion_ops design and
// lets the experiments swap DCTCP, Reno, and CUBIC without touching the
// sender.
#ifndef INCAST_TCP_CONGESTION_CONTROL_H_
#define INCAST_TCP_CONGESTION_CONTROL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "net/packet.h"
#include "sim/time.h"

namespace incast::tcp {

// Delivered to the CCA for every arriving ACK.
struct AckEvent {
  std::int64_t newly_acked_bytes{0};  // 0 for duplicate ACKs
  bool ece{false};                    // ECN-Echo flag on this ACK
  bool rtt_valid{false};
  sim::Time rtt{};           // valid iff rtt_valid
  std::int64_t snd_una{0};   // cumulative ack point after this ACK
  std::int64_t snd_nxt{0};   // highest sequence sent so far
  std::int64_t in_flight{0}; // bytes outstanding after this ACK
  sim::Time now{};
  // True when the sender has no unsent application data: a cautious CCA
  // (kHpcc here, per RFC 7661's reasoning) should not grow the window on
  // such ACKs — growth would be validated against demand that does not
  // exist, which is exactly the burst-boundary "unlearning" of §4.3.
  bool app_limited{false};
  // INT telemetry echoed by the receiver, borrowed from the ACK's pool
  // slot for the duration of on_ack(); nullptr unless the sender's CCA
  // requests INT (see requests_int) and the ACK echoes a stamped stack.
  const net::IntStack* int_stack{nullptr};
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  // Called for every cumulative or duplicate ACK.
  virtual void on_ack(const AckEvent& ev) = 0;

  // Called when fast retransmit infers a loss (entering recovery). Must
  // perform the multiplicative decrease.
  virtual void on_loss(std::int64_t in_flight) = 0;

  // Called when the retransmission timer fires: collapse to 1 MSS.
  virtual void on_timeout() = 0;

  // Called when recovery completes (snd_una passed the recovery point).
  virtual void on_recovery_exit() = 0;

  [[nodiscard]] virtual std::int64_t cwnd_bytes() const = 0;
  [[nodiscard]] virtual std::int64_t ssthresh_bytes() const = 0;
  [[nodiscard]] virtual bool in_slow_start() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  // Returns to the initial-window state (used by slow-start-after-idle).
  virtual void reset_to_initial_window() = 0;
};

// Parameters shared by the window-based CCAs.
struct CcConfig {
  std::int64_t mss_bytes{1460};
  std::int64_t initial_window_segments{10};  // Linux IW10
  // DCTCP parameters.
  double dctcp_gain{1.0 / 16.0};  // g: paper Section 2 uses 1/16
  double dctcp_initial_alpha{1.0};
  // CUBIC parameters.
  double cubic_c{0.4};
  double cubic_beta{0.7};
  // Swift parameters (see tcp/cc/swift.h).
  sim::Time swift_target_delay{sim::Time::microseconds(60)};
  double swift_additive_increase_segments{1.0};
  double swift_beta{0.8};
  double swift_max_mdf{0.5};
  double swift_min_cwnd_segments{0.01};
  // DCQCN parameters (see tcp/cc/dcqcn.h): the SIGCOMM'15 defaults — a slow
  // gain (1/256 vs DCTCP's 1/16) on a 55 us alpha timer, decreases gated to
  // one per 50 us.
  double dcqcn_gain{1.0 / 256.0};
  double dcqcn_initial_alpha{1.0};
  sim::Time dcqcn_alpha_update_interval{sim::Time::microseconds(55)};
  sim::Time dcqcn_rate_decrease_interval{sim::Time::microseconds(50)};
  // HPCC parameters (see tcp/cc/hpcc.h).
  double hpcc_eta{0.95};
  int hpcc_max_stage{5};
  std::int64_t hpcc_wai_bytes{80};
  sim::Time hpcc_base_rtt{sim::Time::microseconds(30)};
  double hpcc_min_cwnd_segments{0.01};
};

// Factory helpers (definitions live with each CCA).
[[nodiscard]] std::unique_ptr<CongestionControl> make_reno(const CcConfig& config,
                                                           bool ecn_enabled);
[[nodiscard]] std::unique_ptr<CongestionControl> make_dctcp(const CcConfig& config);
[[nodiscard]] std::unique_ptr<CongestionControl> make_cubic(const CcConfig& config);

// Named CCA selection for experiment configs.
enum class CcAlgorithm { kReno, kRenoEcn, kDctcp, kCubic, kSwift, kHpcc, kDcqcn };

[[nodiscard]] std::unique_ptr<CongestionControl> make_congestion_control(CcAlgorithm algo,
                                                                         const CcConfig& config);

[[nodiscard]] const char* to_string(CcAlgorithm algo) noexcept;

// In-band network telemetry: a sender whose CCA is driven by INT (kHpcc,
// and only it) requests INT stamping on its data packets; switches stamp
// per-hop records and the receiver echoes them on ACKs.
[[nodiscard]] constexpr bool requests_int(CcAlgorithm algo) noexcept {
  return algo == CcAlgorithm::kHpcc;
}

}  // namespace incast::tcp

#endif  // INCAST_TCP_CONGESTION_CONTROL_H_
