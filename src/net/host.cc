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

void Host::register_flow(FlowId flow, PacketHandler* handler) {
  assert(handler != nullptr);
  flows_[flow] = handler;
}

void Host::unregister_flow(FlowId flow) { flows_.erase(flow); }

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
  } else if (const auto it = flows_.find(p->tcp.flow_id); it != flows_.end()) {
    it->second->handle_packet(*p);
  } else {
    ++unclaimed_packets_;
  }
  packets_.release(p);
}

}  // namespace incast::net
