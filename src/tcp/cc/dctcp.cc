#include "tcp/cc/dctcp.h"

#include <algorithm>

namespace incast::tcp {

void DctcpCc::on_ack(const AckEvent& ev) {
  acked_bytes_ += ev.newly_acked_bytes;
  if (ev.ece) marked_bytes_ += ev.newly_acked_bytes;

  if (ev.snd_una >= window_end_seq_) {
    finish_observation_window(ev);
  }

  // One decrease per window: allowed again once snd_una has reached the
  // snd_nxt recorded at the previous decrease (Linux: !before(snd_una,
  // high_seq)).
  if (ev.ece && ev.snd_una >= cwr_end_seq_) {
    // Proportional decrease, at most once per window of data.
    cwr_end_seq_ = ev.snd_nxt;
    const auto reduced =
        static_cast<std::int64_t>(static_cast<double>(cwnd_bytes()) * (1.0 - alpha_ / 2.0));
    decrease_to(reduced);
    return;
  }

  increase_on_ack(ev.newly_acked_bytes);
}

void DctcpCc::finish_observation_window(const AckEvent& ev) {
  if (acked_bytes_ > 0) {
    const double fraction =
        static_cast<double>(marked_bytes_) / static_cast<double>(acked_bytes_);
    const double g = config().dctcp_gain;
    alpha_ = (1.0 - g) * alpha_ + g * fraction;
  }
  acked_bytes_ = 0;
  marked_bytes_ = 0;
  window_end_seq_ = ev.snd_nxt;
}

void DctcpCc::on_loss(std::int64_t in_flight) {
  // DCTCP falls back to the Reno response on actual loss (RFC 8257 §3.4).
  decrease_to(std::max(in_flight / 2, 2 * mss()));
}

void DctcpCc::on_timeout() {
  // RFC 8257 §3.5: DCTCP reacts to loss episodes exactly as conventional
  // TCP does; alpha keeps evolving from its current value.
  WindowCc::on_timeout();
}

}  // namespace incast::tcp
