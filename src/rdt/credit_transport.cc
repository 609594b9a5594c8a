#include "rdt/credit_transport.h"

#include <algorithm>
#include <cassert>

namespace incast::rdt {

namespace {

net::Packet make_control(net::NodeId src, net::NodeId dst, net::FlowId flow,
                         net::RdtType type, std::int64_t offset, std::int64_t length) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.size_bytes = net::kHeaderBytes;
  p.payload_bytes = 0;
  p.tcp.flow_id = flow;
  p.rdt = net::RdtHeader{type, offset, length};
  return p;
}

}  // namespace

// --- CreditSender -------------------------------------------------------------

CreditSender::CreditSender(sim::Simulator& sim, net::Host& local, net::NodeId receiver,
                           net::FlowId flow, const Config& config)
    : sim_{sim},
      local_{local},
      receiver_{receiver},
      flow_{flow},
      config_{config},
      rng_{flow * 0x9E3779B97f4A7C15ULL + 1} {
  local_.register_flow(flow_, this);
}

CreditSender::~CreditSender() {
  local_.unregister_flow(flow_);
}

void CreditSender::add_app_data(std::int64_t bytes) {
  assert(bytes >= 0);
  if (bytes == 0) return;
  demand_ += bytes;
  send_rts();
}

void CreditSender::send_rts() {
  local_.send(local_.packets().acquire(make_control(local_.id(), receiver_, flow_,
                                                    net::RdtType::kRts,
                                                    /*offset=*/demand_, /*length=*/0)));
  ++rts_sent_;
  arm_rts_retry();
}

void CreditSender::arm_rts_retry() {
  // Exponential backoff with +/-50% jitter: a lost RTS is retried quickly,
  // but a flow merely waiting its round-robin turn quiets down instead of
  // joining a synchronized retry storm.
  sim::Time delay = config_.rts_retry_base;
  for (int i = 0; i < rts_backoff_ && delay < config_.rts_retry_max; ++i) {
    delay = delay * 2.0;
  }
  if (delay > config_.rts_retry_max) delay = config_.rts_retry_max;
  delay = delay * rng_.uniform(0.5, 1.5);
  rts_timer_.arm_in(delay);
}

void CreditSender::on_rts_timeout() {
  if (granted_ < demand_) {
    ++rts_backoff_;
    send_rts();
  }
}

void CreditSender::handle_packet(const net::Packet& p) {
  if (p.rdt.type != net::RdtType::kGrant) return;

  // Each grant releases exactly one segment, immediately.
  net::Packet* data = local_.packets().acquire(
      net::make_data_packet(local_.id(), receiver_, flow_, p.rdt.offset, p.rdt.length));
  data->rdt = net::RdtHeader{net::RdtType::kData, p.rdt.offset, p.rdt.length};
  data->sent_at = sim_.now();
  local_.send(data);
  ++data_sent_;
  granted_ = std::max(granted_, p.rdt.offset + p.rdt.length);

  rts_backoff_ = 0;  // grants are flowing; the receiver clearly knows us
  if (granted_ < demand_) {
    arm_rts_retry();  // keep the RTS watchdog alive while work remains
  } else {
    rts_timer_.disarm();
  }
}

// --- CreditReceiver -----------------------------------------------------------

CreditReceiver::CreditReceiver(sim::Simulator& sim, net::Host& local, const Config& config)
    : sim_{sim}, local_{local}, config_{config} {
  const std::int64_t wire_bytes = config_.mss_bytes + net::kHeaderBytes;
  grant_interval_ =
      config_.line_rate.serialization_time(wire_bytes) * (1.0 / config_.overcommit);
}

void CreditReceiver::accept_flow(net::FlowId flow, net::NodeId sender) {
  auto [it, inserted] = flows_.try_emplace(flow);
  if (!inserted) return;
  it->second.sender = sender;
  ports_.push_back(std::make_unique<FlowPort>(*this, flow));
  local_.register_flow(flow, ports_.back().get());
  rr_order_.push_back(flow);
}

std::int64_t CreditReceiver::received_bytes(net::FlowId flow) const {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? 0 : it->second.received_bytes;
}

void CreditReceiver::on_packet(net::FlowId flow, const net::Packet& p) {
  const auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  switch (p.rdt.type) {
    case net::RdtType::kRts:
      on_rts(it->second, p);
      break;
    case net::RdtType::kData:
      on_data(flow, it->second, p);
      break;
    default:
      break;
  }
}

void CreditReceiver::on_rts(FlowState& state, const net::Packet& p) {
  state.demand = std::max(state.demand, p.rdt.offset);
  if (flow_needs_grant(state)) ensure_grant_timer();
}

void CreditReceiver::on_data(net::FlowId flow, FlowState& state, const net::Packet& p) {
  merge_received(state, p.tcp.seq, p.tcp.seq + p.payload_bytes);

  if (state.received_bytes >= state.demand &&
      state.completed_through < state.demand) {
    state.completed_through = state.demand;
    if (on_flow_complete_) on_flow_complete_(flow);
  }
}

bool CreditReceiver::flow_needs_grant(const FlowState& state) const noexcept {
  return !state.regrant.empty() || state.next_new_offset < state.demand;
}

void CreditReceiver::ensure_grant_timer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  const sim::Time at = std::max(next_grant_at_, sim_.now());
  sim_.schedule_at(at,
                   [this] {
                     timer_armed_ = false;
                     grant_tick();
                   },
                   sim::EventCategory::kTcp);
}

void CreditReceiver::grant_tick() {
  expire_outstanding();

  // Round-robin: find the next flow that can absorb a credit.
  for (std::size_t scanned = 0; scanned < rr_order_.size(); ++scanned) {
    const net::FlowId flow = rr_order_[rr_cursor_];
    rr_cursor_ = (rr_cursor_ + 1) % rr_order_.size();
    auto& state = flows_.at(flow);
    if (!flow_needs_grant(state)) continue;

    issue_grant(flow, state);
    next_grant_at_ = sim_.now() + grant_interval_;
    // More work pending (this or other flows)? Keep the pacer running.
    ensure_grant_timer();
    return;
  }
  // Nothing to grant; outstanding grants may still expire and revive us.
  if (!outstanding_.empty()) {
    next_grant_at_ = std::max(next_grant_at_, outstanding_.front().deadline);
    ensure_grant_timer();
  }
}

void CreditReceiver::issue_grant(net::FlowId flow, FlowState& state) {
  Range r;
  bool is_regrant = false;
  if (!state.regrant.empty()) {
    r = state.regrant.front();
    state.regrant.pop_front();
    is_regrant = true;
    // Clip to one segment; remainder stays queued.
    if (r.end - r.start > config_.mss_bytes) {
      state.regrant.push_front(Range{r.start + config_.mss_bytes, r.end});
      r.end = r.start + config_.mss_bytes;
    }
  } else {
    r.start = state.next_new_offset;
    r.end = std::min(r.start + config_.mss_bytes, state.demand);
    state.next_new_offset = r.end;
  }

  local_.send(local_.packets().acquire(
      make_control(local_.id(), state.sender, flow, net::RdtType::kGrant, r.start,
                   r.end - r.start)));
  ++grants_sent_;
  if (is_regrant) ++regrants_sent_;
  outstanding_.push_back(
      OutstandingGrant{flow, r, sim_.now() + config_.regrant_timeout});
}

void CreditReceiver::expire_outstanding() {
  while (!outstanding_.empty() && outstanding_.front().deadline <= sim_.now()) {
    const OutstandingGrant grant = outstanding_.front();
    outstanding_.pop_front();
    auto& state = flows_.at(grant.flow);
    if (!range_received(state, grant.range)) {
      state.regrant.push_back(grant.range);
    }
  }
}

bool CreditReceiver::range_received(const FlowState& state, const Range& r) const {
  auto it = state.received.upper_bound(r.start);
  if (it != state.received.begin()) {
    --it;
    return it->first <= r.start && it->second >= r.end;
  }
  return false;
}

void CreditReceiver::merge_received(FlowState& state, std::int64_t start, std::int64_t end) {
  if (start >= end) return;
  // Count only bytes not previously received (duplicates from spurious
  // regrants must not double-count).
  std::int64_t new_bytes = end - start;
  auto it = state.received.lower_bound(start);
  if (it != state.received.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {
      new_bytes -= std::min(end, prev->second) - start;
      start = prev->first;
      end = std::max(end, prev->second);
      it = state.received.erase(prev);
    }
  }
  while (it != state.received.end() && it->first <= end) {
    const std::int64_t overlap =
        std::max<std::int64_t>(0, std::min(end, it->second) - it->first);
    new_bytes -= overlap;
    end = std::max(end, it->second);
    it = state.received.erase(it);
  }
  state.received.emplace(start, end);
  if (new_bytes > 0) {
    state.received_bytes += new_bytes;
    total_received_ += new_bytes;
  }
}

}  // namespace incast::rdt
