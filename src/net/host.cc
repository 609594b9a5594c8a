#include "net/host.h"

#include <cassert>
#include <utility>

namespace incast::net {

std::size_t Host::add_nic(sim::Bandwidth bandwidth, sim::Time propagation_delay,
                          const DropTailQueue::Config& queue_config) {
  assert(!has_nic_ && "host already has a NIC");
  nic_port_ = add_port(bandwidth, propagation_delay, queue_config);
  has_nic_ = true;
  return nic_port_;
}

void Host::send(Packet* p) {
  assert(has_nic_);
  if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_injected(p->size_bytes);
  port(nic_port_).send(p);
}

std::size_t Host::home_slot(FlowId flow) const noexcept {
  // Fibonacci hashing: flow ids are small and dense, so spread them with a
  // multiply and take the top bits.
  const std::uint64_t h = flow * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(h >> 32) & (flows_.size() - 1);
}

std::size_t Host::find_slot(FlowId flow) const noexcept {
  const std::size_t mask = flows_.size() - 1;
  std::size_t i = home_slot(flow);
  while (flows_[i].handler != nullptr && flows_[i].flow != flow) i = (i + 1) & mask;
  return i;
}

void Host::grow_flows() {
  std::vector<FlowSlot> old = std::move(flows_);
  flows_.assign(old.empty() ? 8 : old.size() * 2, FlowSlot{});
  for (const FlowSlot& s : old) {
    if (s.handler != nullptr) flows_[find_slot(s.flow)] = s;
  }
}

void Host::register_flow(FlowId flow, PacketHandler* handler) {
  assert(handler != nullptr);
  if ((flow_count_ + 1) * 2 > flows_.size()) grow_flows();
  FlowSlot& s = flows_[find_slot(flow)];
  if (s.handler == nullptr) ++flow_count_;
  s = FlowSlot{flow, handler};
}

void Host::unregister_flow(FlowId flow) {
  if (flows_.empty()) return;
  const std::size_t mask = flows_.size() - 1;
  std::size_t hole = find_slot(flow);
  if (flows_[hole].handler == nullptr) return;
  --flow_count_;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever their home slot does not lie cyclically in (hole, j], so
  // every remaining flow stays reachable from its home without tombstones.
  for (std::size_t j = (hole + 1) & mask; flows_[j].handler != nullptr; j = (j + 1) & mask) {
    const std::size_t home = home_slot(flows_[j].flow);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      flows_[hole] = flows_[j];
      hole = j;
    }
  }
  flows_[hole] = FlowSlot{};
}

void Host::receive(Packet* p, std::size_t in_port) {
  if (p->is_ctrl()) [[unlikely]] {
    // PFC pause/resume from the ToR: applied to the NIC and consumed at
    // the MAC layer — the host stack (taps included) never sees it.
    if (auto* a = INCAST_AUDITOR(sim_)) a->on_control_consumed(p->size_bytes);
    ++pfc_frames_received_;
    if (p->ctrl.type == CtrlType::kPfcPause) {
      port(in_port).pause_for(sim::Time::nanoseconds(p->ctrl.pause_ns));
    } else if (p->ctrl.type == CtrlType::kPfcResume) {
      port(in_port).resume();
    }
    packets_.release(p);
    return;
  }
  // Delivery counts at the NIC: corrupt and unclaimed arrivals included —
  // the wire delivered them; what the host does next is its business.
  if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_delivered(p->size_bytes);
  for (IngressTap* tap : taps_) {
    tap->on_ingress(*p, sim_.now());
  }
  if (p->corrupted) {
    ++corrupt_dropped_packets_;
  } else if (PacketHandler* handler =
                 flows_.empty() ? nullptr : flows_[find_slot(p->tcp.flow_id)].handler;
             handler != nullptr) {
    handler->handle_packet(*p);
  } else {
    ++unclaimed_packets_;
  }
  packets_.release(p);
}

}  // namespace incast::net
