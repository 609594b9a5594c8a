#include "net/switch.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace incast::net {

namespace {

// SplitMix64 finalizer: a full-avalanche 64-bit mixer with no
// implementation-defined behavior, so path assignment is identical on every
// platform for a given seed.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

void Switch::store_route(NodeId dst, const std::size_t* ports, std::size_t count) {
  assert(count > 0 && "a route needs at least one member");
  assert(dst != kInvalidNodeId && "cannot route to the invalid node id");
  if (count > kMaxRouteWidth) {
    throw std::length_error{"switch '" + name() + "': a route group of " +
                            std::to_string(count) + " members is wider than " +
                            std::to_string(kMaxRouteWidth)};
  }
  const RouteRef group = find_or_store(ports, count);
  if (static_cast<std::size_t>(dst) >= route_ref_.size()) {
    route_ref_.resize(static_cast<std::size_t>(dst) + 1);
  }
  route_ref_[dst] = group;
}

Switch::RouteRef Switch::find_or_store(const std::size_t* ports, std::size_t count) {
  if (count == 1) {
    const std::size_t p = ports[0];
    if (p < singles_.size() && singles_[p].count != 0) return singles_[p];
    const RouteRef single = append_group(ports, 1);
    if (p >= singles_.size()) singles_.resize(p + 1);
    singles_[p] = single;
    return single;
  }
  const auto same_members = [&](RouteRef g) {
    if (g.count != count) return false;
    for (std::size_t i = 0; i < count; ++i) {
      if (group_index_[g.offset + i] != ports[i]) return false;
    }
    return true;
  };
  const auto found = std::find_if(multi_.begin(), multi_.end(), same_members);
  if (found != multi_.end()) return *found;
  return multi_.emplace_back(append_group(ports, count));
}

Switch::RouteRef Switch::append_group(const std::size_t* ports, std::size_t count) {
  if (count > kMaxGroupEntries - group_index_.size()) {
    throw std::length_error{"switch '" + name() + "': routing group table would pass " +
                            std::to_string(kMaxGroupEntries) + " members"};
  }
  RouteRef group;
  group.offset = static_cast<std::uint32_t>(group_index_.size());
  group.count = static_cast<std::uint32_t>(count);
  for (std::size_t i = 0; i < count; ++i) {
    group_ports_.push_back(&port(ports[i]));
    group_index_.push_back(static_cast<std::uint32_t>(ports[i]));
  }
  return group;
}

void Switch::set_route(NodeId dst, std::size_t out_port) {
  store_route(dst, &out_port, 1);
}

void Switch::set_ecmp_route(NodeId dst, std::vector<std::size_t> out_ports) {
  assert(!out_ports.empty() && "an ECMP group needs at least one member");
  store_route(dst, out_ports.data(), out_ports.size());
}

std::uint64_t Switch::flow_key(NodeId src, NodeId dst, FlowId flow) const noexcept {
  // Symmetric in (src, dst): data and its returning ACKs share a key.
  const NodeId lo = src < dst ? src : dst;
  const NodeId hi = src < dst ? dst : src;
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(hi) << 32) | static_cast<std::uint64_t>(lo);
  return mix64(mix64(ecmp_seed_ ^ pair) ^ flow);
}

std::optional<std::size_t> Switch::route_port(NodeId src, NodeId dst, FlowId flow) const {
  if (static_cast<std::size_t>(dst) >= route_ref_.size()) return std::nullopt;
  const RouteRef ref = route_ref_[dst];
  if (ref.count == 0) return std::nullopt;
  if (ref.count == 1) return group_index_[ref.offset];
  return group_index_[ref.offset +
                      static_cast<std::size_t>(flow_key(src, dst, flow) % ref.count)];
}

std::size_t Switch::routing_bytes() const noexcept {
  return route_ref_.capacity() * sizeof(RouteRef) +
         group_ports_.capacity() * sizeof(Port*) +
         group_index_.capacity() * sizeof(std::uint32_t) +
         (singles_.capacity() + multi_.capacity()) * sizeof(RouteRef);
}

SharedBufferPool& Switch::enable_shared_buffer(const SharedBufferPool::Config& config) {
  pool_ = std::make_unique<SharedBufferPool>(config);
  for (std::size_t i = 0; i < num_ports(); ++i) {
    port(i).queue().attach_pool(pool_.get());
  }
  return *pool_;
}

void Switch::enable_pfc(const LosslessInputQueue::Config& config) {
  assert(viqs_.empty() && "PFC already enabled");
  viqs_.assign(num_ports(), LosslessInputQueue{config});
  for (std::size_t i = 0; i < num_ports(); ++i) {
    port(i).set_dequeue_tap(this);
  }
  if (pool_ != nullptr) {
    // Real lossless ToRs carve PFC headroom out of the shared buffer; the
    // remaining pool is what egress queues compete over. Clamped to half
    // the pool so a misconfigured headroom degrades instead of wedging
    // every queue.
    const std::int64_t reserve =
        std::min(static_cast<std::int64_t>(num_ports()) * config.headroom_bytes,
                 pool_->total_bytes() / 2);
    pool_->set_external_usage(reserve);
  }
}

void Switch::apply_ctrl(const Packet& p, std::size_t in_port) {
  // The duplex wiring convention pairs in-port i with this switch's egress
  // port i toward the same neighbor, so the pause lands exactly on the
  // offending hop — the VIQ property that distinguishes PFC collateral
  // damage from a full-port stall.
  if (p.ctrl.type == CtrlType::kPfcPause) {
    port(in_port).pause_for(sim::Time::nanoseconds(p.ctrl.pause_ns));
  } else if (p.ctrl.type == CtrlType::kPfcResume) {
    port(in_port).resume();
  }
}

void Switch::credit_viq(std::size_t viq, std::int64_t bytes) {
  if (viq >= viqs_.size()) return;
  if (viqs_[viq].on_departure(bytes) == LosslessInputQueue::Action::kSendResume) {
    Port& upstream = port(viq);
    const NodeId peer = upstream.peer() != nullptr ? upstream.peer()->id() : kInvalidNodeId;
    upstream.send_control(packets_.acquire(make_resume_frame(id(), peer)));
  }
}

void Switch::on_dequeue(const Packet& p, sim::Time /*now*/) {
  if (p.viq >= 0) credit_viq(static_cast<std::size_t>(p.viq), p.size_bytes);
}

void Switch::receive(Packet* p, std::size_t in_port) {
  if (p->is_ctrl()) [[unlikely]] {
    // MAC control frames are consumed by the immediate neighbor — us.
    if (auto* a = INCAST_AUDITOR(sim_)) a->on_control_consumed(p->size_bytes);
    apply_ctrl(*p, in_port);
    packets_.release(p);
    return;
  }
  const RouteRef ref = static_cast<std::size_t>(p->dst) < route_ref_.size()
                           ? route_ref_[p->dst]
                           : RouteRef{};
  if (ref.count == 0) [[unlikely]] {
    ++unrouted_packets_;
    ++unrouted_by_dst_[p->dst];
    if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_dropped(p->size_bytes);
    packets_.release(p);
    return;
  }
  if (!viqs_.empty() && in_port < viqs_.size()) {
    // Lossless ingress accounting: charge the packet to its VIQ and pause
    // upstream when the VIQ saturates. Charged bytes are credited back by
    // on_dequeue when the packet leaves an egress queue (or immediately
    // below, if the egress refuses or trims it).
    switch (viqs_[in_port].on_arrival(p->size_bytes)) {
      case LosslessInputQueue::Action::kDropOverflow:
        // Headroom exhausted — losslessness is violated by configuration.
        if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_dropped(p->size_bytes);
        packets_.release(p);
        return;
      case LosslessInputQueue::Action::kSendPause: {
        Port& upstream = port(in_port);
        const NodeId peer =
            upstream.peer() != nullptr ? upstream.peer()->id() : kInvalidNodeId;
        upstream.send_control(packets_.acquire(
            make_pause_frame(id(), peer, viqs_[in_port].config().pause_ns)));
        break;
      }
      default: break;
    }
    p->viq = static_cast<std::int16_t>(in_port);
  }
  // Single-path routes skip hashing entirely, so a fabric degenerated to
  // one path costs what the static switch did.
  Port* out = group_ports_[ref.offset];
  if (ref.count > 1) {
    const std::uint64_t key = flow_key(p->src, p->dst, p->tcp.flow_id);
    out = group_ports_[ref.offset + static_cast<std::size_t>(key % ref.count)];
  }
  if (viqs_.empty()) {
    out->send(p);
    return;
  }
  // PFC: a packet the egress queue refuses (drops) or trims never reaches
  // on_dequeue with its full size, so the VIQ charge must be unwound here
  // or it leaks and the pause never lifts.
  const std::int16_t viq = p->viq;
  const std::int64_t size = p->size_bytes;
  const DropTailQueue::Stats& egress = out->queue().stats();
  const std::int64_t drops_before = egress.dropped_packets;
  const std::int64_t trim_bytes_before = egress.trimmed_bytes;
  out->send(p);
  if (viq >= 0) {
    if (egress.dropped_packets > drops_before) {
      credit_viq(static_cast<std::size_t>(viq), size);
    } else if (egress.trimmed_bytes > trim_bytes_before) {
      credit_viq(static_cast<std::size_t>(viq), egress.trimmed_bytes - trim_bytes_before);
    }
  }
}

void check_no_unrouted(const Switch& sw) {
  if (sw.unrouted_packets() == 0) return;
  std::vector<std::pair<NodeId, std::int64_t>> by_dst{sw.unrouted_by_dst().begin(),
                                                      sw.unrouted_by_dst().end()};
  std::sort(by_dst.begin(), by_dst.end());
  std::string msg = "switch '" + sw.name() + "' blackholed " +
                    std::to_string(sw.unrouted_packets()) +
                    " packet(s) with no route:";
  for (const auto& [dst, count] : by_dst) {
    msg += " dst=" + std::to_string(dst) + " (" + std::to_string(count) + ")";
  }
  throw std::runtime_error(msg);
}

void check_no_unrouted(const std::vector<Switch*>& switches) {
  for (const Switch* sw : switches) check_no_unrouted(*sw);
}

}  // namespace incast::net
