// TcpConfig: everything tunable about a simulated TCP connection.
#ifndef INCAST_TCP_TCP_CONFIG_H_
#define INCAST_TCP_TCP_CONFIG_H_

#include <cstdint>
#include <optional>

#include "sim/time.h"
#include "tcp/congestion_control.h"
#include "tcp/rtt_estimator.h"

namespace incast::tcp {

struct TcpConfig {
  std::int64_t mss_bytes{1460};  // 1500 B MTU minus 40 B of headers
  CcAlgorithm cc{CcAlgorithm::kDctcp};
  CcConfig cc_config{};
  RttEstimator::Config rtt{};

  // Delayed ACKs. The paper disables them in its simulations because they
  // "exacerbate burstiness and mask the impact of DCTCP's congestion
  // control" (Section 4); ablation A5 turns them back on.
  bool delayed_ack{false};
  int ack_every_n_segments{2};
  sim::Time delayed_ack_timeout{sim::Time::microseconds(500)};

  // Selective acknowledgments (RFC 2018 blocks from the receiver, an
  // RFC 6675-style scoreboard and hole retransmission at the sender).
  // On by default, as in Linux and ns-3.
  bool sack_enabled{true};

  // Limited transmit (RFC 3042): the first two duplicate ACKs may each
  // release one new segment beyond cwnd, keeping the ACK clock alive at
  // small windows.
  bool limited_transmit{true};

  // Tail loss probe (RFC 8985-lite): when ACKs stop arriving for ~2 SRTT
  // with data outstanding, retransmit the last segment to elicit SACK
  // feedback instead of waiting out the full RTO. Off by default — the
  // paper's ns-3/DCTCP setup recovers tail losses via RTO, which is what
  // makes Mode 3's ~200 ms completion times; ablation A8 measures how much
  // of Mode 3 survives on a TLP-enabled stack (as modern kernels are).
  bool tail_loss_probe{false};
  // PTO = max(2 * SRTT, min_pto).
  sim::Time min_pto{sim::Time::milliseconds(1)};

  // If true, an idle period longer than the RTO collapses cwnd back to the
  // initial window (RFC 5681 §4.1). Off by default: the paper's bursts
  // repeat faster than any realistic RTO, so production DCTCP carries cwnd
  // across bursts — the root of the Section 4.3 divergence.
  bool slow_start_after_idle{false};

  // Guardrail (Section 5.1 proposal): an upper bound on cwnd, e.g. set per
  // flow from the predicted incast degree. nullopt = vanilla TCP.
  std::optional<std::int64_t> cwnd_cap_bytes;
};

}  // namespace incast::tcp

#endif  // INCAST_TCP_TCP_CONFIG_H_
