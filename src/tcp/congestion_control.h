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

// The tunable CCA parameters: the ones the paper sets (DCTCP's g) and the
// ones tests use to reach a path quickly. Every other CCA parameter is a
// named constant in its CCA's file. The segment size is not here: a CCA
// takes the connection's TcpConfig::mss_bytes, so segments and windows
// agree.
struct CcConfig {
  std::int64_t initial_window_segments{10};  // Linux IW10
  // DCTCP parameters.
  double dctcp_gain{1.0 / 16.0};  // g: paper Section 2 uses 1/16
  double dctcp_initial_alpha{1.0};
  // Swift's end-to-end delay target (see tcp/cc/swift.h).
  sim::Time swift_target_delay{sim::Time::microseconds(60)};
};

// Named CCA selection for experiment configs.
enum class CcAlgorithm { kReno, kRenoEcn, kDctcp, kCubic, kSwift, kHpcc, kDcqcn };

// Builds `algo` with `mss_bytes`-sized segments.
[[nodiscard]] std::unique_ptr<CongestionControl> make_congestion_control(CcAlgorithm algo,
                                                                         const CcConfig& config,
                                                                         std::int64_t mss_bytes);

[[nodiscard]] const char* to_string(CcAlgorithm algo) noexcept;

// In-band network telemetry: a sender whose CCA is driven by INT (kHpcc,
// and only it) requests INT stamping on its data packets; switches stamp
// per-hop records and the receiver echoes them on ACKs.
[[nodiscard]] constexpr bool requests_int(CcAlgorithm algo) noexcept {
  return algo == CcAlgorithm::kHpcc;
}

}  // namespace incast::tcp

#endif  // INCAST_TCP_CONGESTION_CONTROL_H_
