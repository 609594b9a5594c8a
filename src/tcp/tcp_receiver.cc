#include "tcp/tcp_receiver.h"

#include <cassert>
#include <utility>

namespace incast::tcp {

TcpReceiver::TcpReceiver(sim::Simulator& sim, net::Host& local, net::NodeId remote,
                         net::FlowId flow, const TcpConfig& config)
    : sim_{sim}, local_{local}, remote_{remote}, flow_{flow}, config_{config} {
  local_.register_flow(flow_, this);
}

TcpReceiver::~TcpReceiver() {
  local_.unregister_flow(flow_);
  if (last_int_slot_ != net::kNoIntSlot) local_.packets().drop_int(last_int_slot_);
}

void TcpReceiver::handle_packet(const net::Packet& p) {
  if (p.trimmed) [[unlikely]] {
    // A trimming queue cut this segment's payload and forwarded just the
    // header. The header names exactly what was lost, so NACK it back and
    // the sender retransmits in one RTT — no dup-ACK threshold, no RTO
    // (NDP-style receiver-driven recovery). A CE mark on the trimmed
    // header still feeds the sender's ECN accounting via the echo bit.
    ++stats_.trimmed_headers_received;
    ++stats_.nacks_sent;
    local_.send(local_.packets().acquire(net::make_nack_packet(
        local_.id(), remote_, flow_, p.tcp.seq, p.ecn == net::Ecn::kCe)));
    return;
  }
  if (!p.is_data()) return;  // the receiver side only consumes data

  ++stats_.data_packets_received;
  stats_.data_bytes_received += p.payload_bytes;
  if (const net::IntStack* stack = local_.packets().int_stack(p);
      stack != nullptr && stack->num_hops > 0) {
    if (last_int_slot_ == net::kNoIntSlot) last_int_slot_ = local_.packets().hold_int();
    local_.packets().int_stack_at(last_int_slot_) = *stack;
  }
  const bool ce = p.ecn == net::Ecn::kCe;
  if (ce) ++stats_.ce_packets_received;

  const std::int64_t seg_start = p.tcp.seq;
  const std::int64_t seg_end = seg_start + p.payload_bytes;

  if (seg_end <= rcv_nxt_) {
    // Entirely old (a spurious retransmission): re-ACK immediately so the
    // sender can make progress.
    send_ack(delayed_ack_ece(ce), /*duplicate=*/true);
    return;
  }

  if (seg_start > rcv_nxt_) {
    // A gap: buffer and emit an immediate duplicate ACK (RFC 5681 §3.2).
    ++stats_.out_of_order_packets;
    store_out_of_order(p);
    send_ack(delayed_ack_ece(ce), /*duplicate=*/true);
    return;
  }

  // RFC 8257 §3.2: when the CE state changes, immediately ACK everything
  // received *before* this segment with the old ECE value, so the sender's
  // per-byte marking accounting stays exact despite ACK coalescing. Must
  // happen before rcv_nxt advances past the new segment.
  if (config_.delayed_ack && ce != ce_state_) {
    if (pending_segments_ > 0) {
      send_ack(/*ece=*/ce_state_, /*duplicate=*/false);
    }
    ce_state_ = ce;
  }

  accept_in_order(p);
  on_segment_acceptable(ce);
}

void TcpReceiver::accept_in_order(const net::Packet& p) {
  const std::int64_t old_rcv_nxt = rcv_nxt_;
  rcv_nxt_ = p.tcp.seq + p.payload_bytes;
  merge_contiguous();
  if (on_data_) on_data_(rcv_nxt_ - old_rcv_nxt);
}

void TcpReceiver::store_out_of_order(const net::Packet& p) {
  std::int64_t start = p.tcp.seq;
  std::int64_t end = start + p.payload_bytes;
  // Merge with any overlapping or adjacent stored ranges.
  auto it = ooo_.lower_bound(start);
  if (it != ooo_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {
      start = prev->first;
      end = std::max(end, prev->second);
      it = ooo_.erase(prev);
    }
  }
  while (it != ooo_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = ooo_.erase(it);
  }
  ooo_.emplace(start, end);
  note_recent_ooo(start);
}

void TcpReceiver::note_recent_ooo(std::int64_t start) {
  // Move `start` to the front of the recency list (RFC 2018: the block
  // containing the most recent segment is reported first).
  std::erase(recent_ooo_, start);
  recent_ooo_.push_front(start);
  while (recent_ooo_.size() > 2 * net::kMaxSackBlocks) recent_ooo_.pop_back();
}

void TcpReceiver::attach_sack_blocks(net::Packet& ack) const {
  if (!config_.sack_enabled || ooo_.empty()) return;
  for (const std::int64_t start : recent_ooo_) {
    if (ack.tcp.num_sack >= net::kMaxSackBlocks) break;
    const auto it = ooo_.find(start);
    if (it == ooo_.end()) continue;  // merged away since it was noted
    ack.tcp.sack[ack.tcp.num_sack++] = net::SackBlock{it->first, it->second};
  }
}

void TcpReceiver::merge_contiguous() {
  while (!ooo_.empty()) {
    const auto it = ooo_.begin();
    if (it->first > rcv_nxt_) break;
    rcv_nxt_ = std::max(rcv_nxt_, it->second);
    ooo_.erase(it);
  }
}

void TcpReceiver::on_segment_acceptable(bool ce) {
  if (!config_.delayed_ack) {
    send_ack(/*ece=*/ce, /*duplicate=*/false);
    return;
  }

  ++pending_segments_;
  if (pending_segments_ >= config_.ack_every_n_segments) {
    flush_delayed_ack();
  } else {
    schedule_delayed_ack();
  }
}

// ECE value to put on an immediate (non-delayed-path) ACK.
// With delayed ACKs off this is simply the segment's CE mark, handled at the
// call sites; with them on, ECE always reports the state machine's belief.
bool TcpReceiver::delayed_ack_ece(bool segment_ce) const noexcept {
  return config_.delayed_ack ? ce_state_ : segment_ce;
}

void TcpReceiver::send_ack(bool ece, bool duplicate) {
  net::Packet* ack = local_.packets().acquire(
      net::make_ack_packet(local_.id(), remote_, flow_, rcv_nxt_, ece));
  attach_sack_blocks(*ack);
  if (last_int_slot_ != net::kNoIntSlot) {
    net::PacketPool& pool = local_.packets();
    pool.attach_int(*ack) = pool.int_stack_at(last_int_slot_);
  }
  ++stats_.acks_sent;
  if (duplicate) ++stats_.dup_acks_sent;
  local_.send(ack);
  pending_segments_ = 0;
  ack_timer_.disarm();
}

void TcpReceiver::schedule_delayed_ack() {
  if (ack_timer_.armed()) return;
  ack_timer_.arm_in(config_.delayed_ack_timeout, local_.next_event_key());
}

void TcpReceiver::on_delayed_ack() {
  if (pending_segments_ > 0) flush_delayed_ack();
}

void TcpReceiver::flush_delayed_ack() { send_ack(/*ece=*/ce_state_, /*duplicate=*/false); }

}  // namespace incast::tcp
