#include "tcp/cc/reno.h"

namespace incast::tcp {

void RenoCc::on_ack(const AckEvent& ev) {
  if (ecn_enabled_ && ev.ece && ev.snd_una >= cwr_end_seq_) {
    // Classic ECN: respond as if a packet were lost, once per window.
    cwr_end_seq_ = ev.snd_nxt;
    decrease_to(cwnd_bytes() / 2);
    return;  // do not also grow on this ACK
  }
  increase_on_ack(ev.newly_acked_bytes);
}

void RenoCc::on_loss(std::int64_t in_flight) {
  // RFC 5681: ssthresh = max(FlightSize / 2, 2 MSS); cwnd = ssthresh after
  // recovery (we do not model window inflation; the sender allows the
  // recovery retransmissions explicitly).
  decrease_to(std::max(in_flight / 2, 2 * mss()));
}

}  // namespace incast::tcp
