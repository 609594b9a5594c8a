#include "tcp/tcp_sender.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/hub.h"

namespace incast::tcp {

namespace {
constexpr int kMaxRtoBackoff = 10;  // cap 2^10 on the exponential backoff
// Duplicate ACKs that trigger fast retransmit: RFC 5681's DupThresh of 3.
constexpr int kDupAckThreshold = 3;
// The tail loss probe fires after 2 * SRTT without an ACK (RFC 8985's PTO).
constexpr double kPtoSrttMultiplier = 2.0;
}

TcpSender::TcpSender(sim::Simulator& sim, net::Host& local, net::NodeId remote,
                     net::FlowId flow, const TcpConfig& config)
    : sim_{sim},
      local_{local},
      remote_{remote},
      flow_{flow},
      config_{config},
      cc_{make_congestion_control(config.cc, config.cc_config)},
      rtt_{config.rtt} {
  local_.register_flow(flow_, this);

  hub_ = INCAST_OBS_HUB(sim_);
  if (hub_ != nullptr && hub_->enabled()) {
    const std::string flow_str = std::to_string(flow_);
    trace_tid_ = obs::kFlowTidBase + static_cast<std::uint32_t>(flow_);
    cwnd_counter_name_ = "cwnd.f" + flow_str;
    hub_->set_thread_name(trace_tid_, "flow " + flow_str);
    metric_prefix_ = "tcp.sender." + flow_str + ".";
    auto& m = hub_->metrics();
    m.register_counter(metric_prefix_ + "rto_count", [this] { return stats_.timeouts; });
    m.register_counter(metric_prefix_ + "fast_retransmits",
                       [this] { return stats_.fast_retransmits; });
    m.register_counter(metric_prefix_ + "retransmitted_packets",
                       [this] { return stats_.retransmitted_packets; });
    m.register_counter(metric_prefix_ + "data_packets_sent",
                       [this] { return stats_.data_packets_sent; });
    m.register_counter(metric_prefix_ + "ece_acks_received",
                       [this] { return stats_.ece_acks_received; });
    m.register_gauge(metric_prefix_ + "cwnd_bytes",
                     [this] { return static_cast<double>(effective_cwnd()); });
  } else {
    hub_ = nullptr;
  }

  if (auto* ft = INCAST_FLOW_TRACER(sim_); ft != nullptr && ft->sampled(flow_)) {
    ft_ = ft;
  }
}

TcpSender::~TcpSender() {
  if (hub_ != nullptr) {
    hub_->metrics().unregister_prefix(metric_prefix_);
  }
  local_.unregister_flow(flow_);
}

void TcpSender::maybe_emit_cwnd() {
  if (hub_ == nullptr || !hub_->tracing()) return;
  const std::int64_t cwnd = effective_cwnd();
  if (cwnd == last_cwnd_emitted_) return;
  last_cwnd_emitted_ = cwnd;
  hub_->counter(sim_.now().ns(), obs::TraceCategory::kTcp, cwnd_counter_name_,
                trace_tid_, cwnd);
}

void TcpSender::close_recovery_span() {
  if (!recovery_span_open_) return;
  recovery_span_open_ = false;
  hub_->end(sim_.now().ns(), obs::TraceCategory::kTcp, "fast_recovery", trace_tid_);
}

void TcpSender::ft_unblock(obs::FlowTracer::UnblockCause cause) {
  ft_->on_unblocked(flow_, sim_.now().ns(), cause);
}

void TcpSender::ft_block() {
  using BlockReason = obs::FlowTracer::BlockReason;
  BlockReason reason = BlockReason::kDrain;
  if (in_recovery_) {
    reason = BlockReason::kFastRecovery;
  } else if (snd_nxt_ < app_limit_) {
    reason = BlockReason::kCwndLimited;
  }
  ft_->on_blocked(flow_, sim_.now().ns(), reason);
}

void TcpSender::add_app_data(std::int64_t bytes) {
  assert(bytes >= 0);
  if (bytes == 0) return;

  if (ft_ != nullptr) {
    // Idle flow: opens a new active period (no-op if one is open). Active
    // flow: the app pushing data is what woke the sender, so close the
    // open wait interval (a just-opened period closes a zero-length one).
    ft_->on_period_start(flow_, sim_.now().ns());
    ft_unblock(obs::FlowTracer::UnblockCause::kApp);
  }

  if (config_.slow_start_after_idle && snd_una_ == snd_nxt_ &&
      sim_.now() - last_activity_ > current_rto()) {
    cc_->reset_to_initial_window();
  }

  app_limit_ += bytes;
  try_send();
  if (ft_ != nullptr) ft_block();
}

std::int64_t TcpSender::effective_cwnd() const noexcept {
  const std::int64_t cwnd = cc_->cwnd_bytes();
  if (config_.cwnd_cap_bytes.has_value()) {
    return std::max(std::min(cwnd, *config_.cwnd_cap_bytes), config_.mss_bytes);
  }
  return cwnd;
}

void TcpSender::handle_packet(const net::Packet& p) {
  if (ft_ != nullptr) {
    ft_unblock(p.tcp.nack ? obs::FlowTracer::UnblockCause::kNack
                          : obs::FlowTracer::UnblockCause::kAck);
  }
  if (p.tcp.nack) [[unlikely]] {
    on_nack(p);
    if (ft_ != nullptr) ft_block();
    return;
  }
  if (!p.tcp.has_ack) {
    if (ft_ != nullptr) ft_block();
    return;
  }

  ++stats_.acks_received;
  if (p.tcp.ece) ++stats_.ece_acks_received;

  if (config_.sack_enabled && p.tcp.num_sack > 0) {
    update_scoreboard(p.tcp);
  }

  const std::int64_t ack = p.tcp.ack;
  if (ack > snd_una_) {
    on_new_ack(ack, p.tcp.ece, local_.packets().int_stack(p));
  } else if (ack == snd_una_ && snd_nxt_ > snd_una_) {
    on_duplicate_ack(p.tcp.ece, local_.packets().int_stack(p));
  }
  // ACKs below snd_una_ are stale; ignore.

  // Sanity-check the window the congestion controller just produced: a
  // non-positive or absurd cwnd here means a CCA bug, not congestion.
  if (auto* a = INCAST_AUDITOR(sim_)) a->check_cwnd(flow_, effective_cwnd());

  if (ft_ != nullptr) ft_block();
}

void TcpSender::on_nack(const net::Packet& p) {
  // Receiver-driven recovery for trimmed packets: the NACK names exactly
  // the segment whose payload a trimming queue cut, so retransmit it
  // immediately — no dup-ACK threshold, no RTO. The CE echo is counted but
  // deliberately NOT fed to the CCA: a trimming queue marks its data ring
  // at the ECN threshold below the trim point, so the congestion signal
  // already reaches the sender byte-weighted through surviving ACKs.
  // Triggering DCTCP's once-per-window decrease again for each trimmed
  // packet double-counts the same queue excursion and collapses senders
  // that NDP-style recovery is meant to keep at line rate.
  ++stats_.nacks_received;
  if (p.tcp.ece) ++stats_.ece_acks_received;

  const std::int64_t seq = p.tcp.seq;
  if (seq < snd_una_ || seq >= snd_nxt_) return;  // already acked or stale

  // Skip if the range has since been SACKed (a retransmit already landed).
  const std::int64_t len =
      std::min(config_.mss_bytes, std::min(max_sent_, app_limit_) - seq);
  if (len <= 0) return;
  for (const auto& [s, e] : sacked_) {
    if (s <= seq && e >= seq + len) return;
  }

  ++stats_.nack_retransmits;
  send_segment(seq, len);
  rearm_rto();
}

void TcpSender::update_scoreboard(const net::TcpHeader& tcp) {
  for (int i = 0; i < tcp.num_sack; ++i) {
    ++stats_.sack_blocks_processed;
    std::int64_t start = std::max(tcp.sack[static_cast<std::size_t>(i)].start, snd_una_);
    std::int64_t end = std::min(tcp.sack[static_cast<std::size_t>(i)].end, snd_nxt_);
    if (start >= end) continue;

    // Merge [start, end) into the disjoint scoreboard, counting only the
    // bytes not already recorded.
    auto it = sacked_.lower_bound(start);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) {
        start = prev->first;
        end = std::max(end, prev->second);
        sacked_bytes_ -= prev->second - prev->first;
        it = sacked_.erase(prev);
      }
    }
    while (it != sacked_.end() && it->first <= end) {
      end = std::max(end, it->second);
      sacked_bytes_ -= it->second - it->first;
      it = sacked_.erase(it);
    }
    sacked_.emplace(start, end);
    sacked_bytes_ += end - start;
  }
}

void TcpSender::drop_scoreboard_below(std::int64_t seq) {
  while (!sacked_.empty()) {
    auto it = sacked_.begin();
    if (it->second <= seq) {
      sacked_bytes_ -= it->second - it->first;
      sacked_.erase(it);
    } else if (it->first < seq) {
      sacked_bytes_ -= seq - it->first;
      const std::int64_t end = it->second;
      sacked_.erase(it);
      sacked_.emplace(seq, end);
      break;
    } else {
      break;
    }
  }
}

std::pair<std::int64_t, std::int64_t> TcpSender::next_hole() const {
  std::int64_t start = std::max(snd_una_, recovery_retx_cursor_);
  // Skip past any sacked ranges covering `start`.
  for (const auto& [s, e] : sacked_) {
    if (e <= start) continue;
    if (s > start) break;  // `start` sits in a gap
    start = e;
  }
  const std::int64_t limit = std::min(recover_seq_, app_limit_);
  if (start >= limit) return {0, 0};

  std::int64_t end = std::min(start + config_.mss_bytes, limit);
  // Do not run into the next sacked block.
  const auto it = sacked_.upper_bound(start);
  if (it != sacked_.end() && it->first < end) end = it->first;
  return {start, end - start};
}

AckEvent TcpSender::make_ack_event(std::int64_t newly_acked, bool ece) const noexcept {
  AckEvent ev;
  ev.newly_acked_bytes = newly_acked;
  ev.ece = ece;
  ev.snd_una = snd_una_;
  ev.snd_nxt = snd_nxt_;
  ev.in_flight = in_flight_bytes();
  ev.now = sim_.now();
  ev.app_limited = snd_nxt_ >= app_limit_;
  return ev;
}

void TcpSender::on_new_ack(std::int64_t ack, bool ece, const net::IntStack* int_stack) {
  const std::int64_t newly_acked = ack - snd_una_;
  snd_una_ = ack;
  // After an RTO's go-back-N, data buffered out-of-order at the receiver
  // can make the cumulative ACK jump past the collapsed send point; keep
  // the snd_una <= snd_nxt invariant so pipe accounting stays sane.
  snd_nxt_ = std::max(snd_nxt_, snd_una_);
  drop_scoreboard_below(ack);
  dup_acks_ = 0;
  rto_backoff_ = 0;  // new progress resets the backoff

  // RTT sample (Karn's rule: sample_end_seq_ was invalidated if the timed
  // segment's range was retransmitted).
  AckEvent ev = make_ack_event(newly_acked, ece);
  ev.int_stack = int_stack;
  if (sample_end_seq_ >= 0 && ack >= sample_end_seq_) {
    ev.rtt_valid = true;
    ev.rtt = sim_.now() - sample_sent_at_;
    rtt_.add_sample(ev.rtt);
    sample_end_seq_ = -1;
  }

  if (in_recovery_) {
    if (ack >= recover_seq_) {
      in_recovery_ = false;
      cc_->on_recovery_exit();
      if (hub_ != nullptr) close_recovery_span();
    } else {
      // Partial ACK: the next hole was also lost; retransmit it
      // immediately (RFC 6582 §3.2 / RFC 6675's NextSeg with the SACK
      // scoreboard skipping already-delivered ranges).
      retransmit_holes();
    }
  }

  cc_->on_ack(ev);
  if (hub_ != nullptr) maybe_emit_cwnd();

  // Forward progress: the quiet episode (if any) is over.
  tlp_probe_outstanding_ = false;
  if (snd_una_ == snd_nxt_) {
    rto_timer_.disarm();
    tlp_timer_.disarm();
  } else {
    rearm_rto();
    if (config_.tail_loss_probe && !in_recovery_) arm_tlp();
  }

  try_send();

  // Close the tracer's active period before the completion callback — the
  // callback may push the next burst, which opens a fresh period.
  if (ft_ != nullptr && all_acked()) {
    ft_->on_flow_complete(flow_, sim_.now().ns());
  }

  if (on_ack_advance_) on_ack_advance_(snd_una_);
  if (all_acked() && on_all_acked_) {
    on_all_acked_();
  }
}

void TcpSender::on_duplicate_ack(bool ece, const net::IntStack* int_stack) {
  ++dup_acks_;
  AckEvent ev = make_ack_event(0, ece);
  ev.int_stack = int_stack;
  cc_->on_ack(ev);
  if (hub_ != nullptr) maybe_emit_cwnd();

  // RFC 6675-style early entry: three duplicate ACKs, or SACK evidence of
  // at least DupThresh segments having left the network.
  const bool sack_loss = config_.sack_enabled &&
                         sacked_bytes_ >= kDupAckThreshold * config_.mss_bytes;
  if (!in_recovery_ && (dup_acks_ >= kDupAckThreshold || sack_loss)) {
    enter_recovery();
  } else if (in_recovery_) {
    // Each duplicate ACK signals a departure; keep filling holes while the
    // window allows.
    retransmit_holes();
  } else if (config_.limited_transmit && dup_acks_ <= 2 && snd_nxt_ < app_limit_ &&
             pipe_bytes() <= effective_cwnd() + 2 * config_.mss_bytes) {
    // Limited transmit (RFC 3042): the first two duplicate ACKs may each
    // release one new segment, keeping the ACK clock alive at small
    // windows.
    const std::int64_t len = std::min(config_.mss_bytes, app_limit_ - snd_nxt_);
    send_segment(snd_nxt_, len);
    snd_nxt_ += len;
    max_sent_ = std::max(max_sent_, snd_nxt_);
    ++stats_.limited_transmits;
  }
  try_send();
}

void TcpSender::enter_recovery() {
  in_recovery_ = true;
  recover_seq_ = snd_nxt_;
  recovery_retx_cursor_ = snd_una_;
  tlp_timer_.disarm();  // loss recovery supersedes the probe
  ++stats_.fast_retransmits;
  if (hub_ != nullptr && hub_->tracing() && !recovery_span_open_) {
    recovery_span_open_ = true;
    hub_->begin(sim_.now().ns(), obs::TraceCategory::kTcp, "fast_recovery", trace_tid_,
                "flow", flow_);
  }
  cc_->on_loss(in_flight_bytes());
  if (hub_ != nullptr) maybe_emit_cwnd();
  retransmit_head();
}

void TcpSender::retransmit_head() {
  // The first retransmission of a recovery episode: always allowed, even
  // if the post-loss window is already full.
  auto [seq, len] = next_hole();
  if (len <= 0) return;
  send_segment(seq, len);
  recovery_retx_cursor_ = seq + len;
}

void TcpSender::retransmit_holes() {
  // One hole per ACK (packet conservation): each arriving ACK lets one
  // retransmission out, provided the window has room.
  auto [seq, len] = next_hole();
  if (len <= 0) return;
  if (pipe_bytes() + len > effective_cwnd() + config_.mss_bytes) return;
  send_segment(seq, len);
  recovery_retx_cursor_ = seq + len;
}

void TcpSender::try_send() {
  const std::int64_t cwnd = effective_cwnd();
  if (cwnd < config_.mss_bytes) {
    paced_send(cwnd);
    return;
  }
  while (snd_nxt_ < app_limit_) {
    const std::int64_t len = std::min(config_.mss_bytes, app_limit_ - snd_nxt_);
    // Window check on "pipe" (outstanding minus SACKed): outside recovery
    // the scoreboard is empty and this is the classic in-flight check.
    if (pipe_bytes() + len > cwnd) break;
    send_segment(snd_nxt_, len);
    snd_nxt_ += len;
    max_sent_ = std::max(max_sent_, snd_nxt_);
  }
}

void TcpSender::paced_send(std::int64_t cwnd) {
  if (snd_nxt_ >= app_limit_ || pipe_bytes() > 0) return;

  const sim::Time now = sim_.now();
  if (now < pace_next_) {
    // Too soon: wake up when the pacing gap has elapsed.
    if (!pace_timer_.armed()) pace_timer_.arm_at(pace_next_, local_.next_event_key());
    return;
  }

  const std::int64_t len = std::min(config_.mss_bytes, app_limit_ - snd_nxt_);
  send_segment(snd_nxt_, len);
  snd_nxt_ += len;
  max_sent_ = std::max(max_sent_, snd_nxt_);

  // One packet per (mss / cwnd) base RTTs: with cwnd = 0.25 MSS, a packet
  // every four RTTs. The base (min) RTT is used so queueing delay does not
  // feed back into the pacing rate.
  const sim::Time rtt =
      rtt_.has_sample() ? rtt_.min_rtt() : sim::Time::microseconds(30);
  const double packets_per_rtt =
      static_cast<double>(std::max<std::int64_t>(cwnd, 1)) /
      static_cast<double>(config_.mss_bytes);
  pace_next_ = now + rtt * (1.0 / packets_per_rtt);
}

void TcpSender::send_segment(std::int64_t seq, std::int64_t len) {
  assert(len > 0);
  net::Packet* p =
      local_.packets().acquire(net::make_data_packet(local_.id(), remote_, flow_, seq, len));
  p->sent_at = sim_.now();
  if (requests_int(config_.cc)) local_.packets().attach_int(*p);
  p->flow_traced = ft_ != nullptr;

  const bool is_retx = seq + len <= max_sent_;
  p->is_retransmit = is_retx;

  ++stats_.data_packets_sent;
  stats_.data_bytes_sent += len;
  if (is_retx) {
    ++stats_.retransmitted_packets;
    stats_.retransmitted_bytes += len;
    // Karn's rule: a retransmission overlapping the timed segment
    // invalidates the pending RTT sample.
    if (sample_end_seq_ >= 0 && seq < sample_end_seq_) {
      sample_end_seq_ = -1;
    }
  } else if (sample_end_seq_ < 0) {
    sample_end_seq_ = seq + len;
    sample_sent_at_ = sim_.now();
  }

  last_activity_ = sim_.now();
  local_.send(p);
  arm_rto();
  if (config_.tail_loss_probe && !in_recovery_ && !tlp_probe_outstanding_) {
    arm_tlp();
  }
}

void TcpSender::on_pace() {
  if (ft_ != nullptr) ft_unblock(obs::FlowTracer::UnblockCause::kTimer);
  try_send();
  if (ft_ != nullptr) ft_block();
}

void TcpSender::arm_tlp() {
  const sim::Time srtt =
      rtt_.has_sample() ? rtt_.srtt() : rtt_.config().initial_rto;
  sim::Time pto = srtt * kPtoSrttMultiplier;
  if (pto < config_.min_pto) pto = config_.min_pto;
  tlp_timer_.arm_in(pto, local_.next_event_key());
}

void TcpSender::on_pto() {
  // A probe timeout: no ACK for ~2 SRTT with data outstanding. Retransmit
  // the highest-sent segment (or send new data if available) to elicit a
  // SACK/dupACK response; fast recovery then repairs the actual hole
  // without waiting out the RTO (RFC 8985 §7.3, simplified).
  if (snd_una_ >= snd_nxt_ || in_recovery_) return;

  if (ft_ != nullptr) ft_unblock(obs::FlowTracer::UnblockCause::kTimer);
  ++stats_.tlp_probes;
  tlp_probe_outstanding_ = true;  // at most one probe per quiet episode

  if (snd_nxt_ < app_limit_) {
    const std::int64_t len = std::min(config_.mss_bytes, app_limit_ - snd_nxt_);
    send_segment(snd_nxt_, len);
    snd_nxt_ += len;
    max_sent_ = std::max(max_sent_, snd_nxt_);
  } else {
    const std::int64_t len = std::min(config_.mss_bytes, snd_nxt_ - snd_una_);
    send_segment(snd_nxt_ - len, len);
  }
  // The RTO (re-armed by send_segment if needed) remains the backstop.
  if (ft_ != nullptr) ft_block();
}

sim::Time TcpSender::current_rto() const noexcept {
  sim::Time rto = rtt_.rto();
  for (int i = 0; i < rto_backoff_; ++i) {
    rto = rto * 2;
    if (rto > rtt_.config().max_rto) return rtt_.config().max_rto;
  }
  return rto;
}

void TcpSender::arm_rto() {
  if (rto_timer_.armed()) return;
  if (auto* a = INCAST_AUDITOR(sim_)) a->check_rto(flow_, current_rto());
  rto_timer_.arm_in(current_rto(), local_.next_event_key());
}

void TcpSender::rearm_rto() {
  rto_timer_.disarm();
  arm_rto();
}

void TcpSender::on_rto() {
  if (snd_una_ >= snd_nxt_) {
    // Stale timer: nothing is outstanding. If the application still has
    // unsent data (e.g. a pacing gap was pending when the flow went
    // idle), revive transmission rather than going silent.
    if (ft_ != nullptr) ft_unblock(obs::FlowTracer::UnblockCause::kTimer);
    try_send();
    if (ft_ != nullptr) ft_block();
    return;
  }

  if (ft_ != nullptr) ft_unblock(obs::FlowTracer::UnblockCause::kRto);
  ++stats_.timeouts;
  rto_backoff_ = std::min(rto_backoff_ + 1, kMaxRtoBackoff);
  if (hub_ != nullptr) {
    // "rto" is also the flight recorder's storm-trigger event name.
    hub_->instant(sim_.now().ns(), obs::TraceCategory::kTcp, "rto", trace_tid_,
                  "flow", flow_, "backoff", rto_backoff_);
    close_recovery_span();  // go-back-N abandons any in-progress recovery
  }
  cc_->on_timeout();
  if (hub_ != nullptr) maybe_emit_cwnd();

  // Go-back-N: collapse the send point to the cumulative ACK. max_sent_
  // keeps its value so the re-sent range is accounted as retransmission.
  // The scoreboard is discarded with it (everything will be re-sent).
  snd_nxt_ = snd_una_;
  in_recovery_ = false;
  dup_acks_ = 0;
  sample_end_seq_ = -1;
  sacked_.clear();
  sacked_bytes_ = 0;
  tlp_timer_.disarm();
  tlp_probe_outstanding_ = false;

  try_send();
  arm_rto();
  if (ft_ != nullptr) ft_block();
}

}  // namespace incast::tcp
