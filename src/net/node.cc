#include "net/node.h"

#include <cassert>
#include <utility>

#include "obs/flow_trace.h"
#include "obs/hub.h"

namespace incast::net {

std::uint64_t Port::next_key() {
  if (!sim_.keyed_ordering()) return 0;
  assert(owner_ != nullptr);
  return owner_->next_event_key();
}

void Port::set_trace_label(const std::string& label) {
  obs::Hub* hub = INCAST_OBS_HUB(sim_);
  if (hub == nullptr || !hub->enabled()) {
    trace_hub_ = nullptr;
    return;
  }
  trace_hub_ = hub;
  drop_event_name_ = label + ".drop";
  mark_event_name_ = label + ".ecn_mark";
  trim_event_name_ = label + ".trim";
  pause_event_name_ = label + ".pfc_pause";
  resume_event_name_ = label + ".pfc_resume";
}

void Port::send(Packet* p) {
  assert(connected() && "port must be connected before sending");
  if (flow_tracer_ != nullptr && p->flow_traced) {
    // Stamp admission time and the pause ledger; read back at dequeue to
    // attribute this hop's residency (queue wait vs. PFC pause overlap).
    p->trace_enqueue_ns = sim_.now().ns();
    p->trace_paused_ns = paused_ns();
  }
  const std::int64_t size = p->size_bytes;
  const std::int64_t trims_before = queue_.stats().trimmed_bytes;
  if (trace_hub_ == nullptr) {
    if (queue_.enqueue(p)) {
      if (auto* a = INCAST_AUDITOR(sim_)) {
        const std::int64_t cut = queue_.stats().trimmed_bytes - trims_before;
        if (cut > 0) a->on_bytes_trimmed(cut);
      }
      maybe_transmit();
    } else {
      if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_dropped(size);  // tail-drop
      pool_->release(p);
    }
    return;
  }

  // Traced path: detect this enqueue's drop/trim/ECN-mark outcome from the
  // queue stats delta and emit an instant on the queue track.
  const bool tracing = trace_hub_->tracing();
  const std::int64_t marks_before = queue_.stats().ecn_marked_packets;
  const FlowId flow = p->tcp.flow_id;
  if (queue_.enqueue(p)) {
    const std::int64_t cut = queue_.stats().trimmed_bytes - trims_before;
    if (cut > 0) {
      if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_trimmed(cut);
      if (tracing) {
        trace_hub_->instant(sim_.now().ns(), obs::TraceCategory::kQueue,
                            trim_event_name_, obs::kQueueTid, "flow", flow, "qlen",
                            queue_.packets());
      }
    } else if (tracing && queue_.stats().ecn_marked_packets > marks_before) {
      trace_hub_->instant(sim_.now().ns(), obs::TraceCategory::kQueue,
                          mark_event_name_, obs::kQueueTid, "flow", flow, "qlen",
                          queue_.packets());
    }
    maybe_transmit();
  } else {
    if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_dropped(size);
    pool_->release(p);
    if (tracing) {
      trace_hub_->instant(sim_.now().ns(), obs::TraceCategory::kQueue,
                          drop_event_name_, obs::kQueueTid, "flow", flow, "qlen",
                          queue_.packets());
    }
  }
}

void Port::send_control(Packet* p) {
  assert(connected() && "port must be connected before sending");
  assert(p->is_ctrl());
  if (auto* a = INCAST_AUDITOR(sim_)) a->on_control_injected(p->size_bytes);
  // Compact the drained prefix before appending, keeping the FIFO bounded
  // by the number of in-flight control frames.
  if (ctrl_head_ > 0 && ctrl_head_ == ctrl_fifo_.size()) {
    ctrl_fifo_.clear();
    ctrl_head_ = 0;
  }
  ctrl_fifo_.push_back(p);
  maybe_transmit();
}

void Port::pause_for(sim::Time duration) {
  if (!paused_) {
    paused_ = true;
    ++pause_count_;
    pause_started_ns_ = sim_.now().ns();
    if (trace_hub_ != nullptr && trace_hub_->tracing()) {
      trace_hub_->instant(sim_.now().ns(), obs::TraceCategory::kQueue,
                          pause_event_name_, obs::kQueueTid, "pause_ns",
                          duration.ns(), "qlen", queue_.packets());
    }
  }
  // (Re)arm the auto-expiry; a newer pause supersedes any pending one.
  const std::uint64_t epoch = ++pause_epoch_;
  sim_.schedule_in_keyed(duration, next_key(), [this, epoch] {
    if (paused_ && epoch == pause_epoch_) finish_pause();
  }, sim::EventCategory::kNet);
}

void Port::resume() {
  if (!paused_) return;
  finish_pause();
}

void Port::finish_pause() {
  paused_ = false;
  ++pause_epoch_;  // invalidate any pending auto-expiry
  paused_ns_total_ += sim_.now().ns() - pause_started_ns_;
  if (trace_hub_ != nullptr && trace_hub_->tracing()) {
    trace_hub_->instant(sim_.now().ns(), obs::TraceCategory::kQueue,
                        resume_event_name_, obs::kQueueTid, "paused_ns",
                        sim_.now().ns() - pause_started_ns_, "qlen",
                        queue_.packets());
  }
  maybe_transmit();
}

std::int64_t Port::paused_ns() const noexcept {
  std::int64_t total = paused_ns_total_;
  if (paused_) total += sim_.now().ns() - pause_started_ns_;
  return total;
}

void Port::maybe_transmit() {
  if (busy_) return;
  Packet* next;
  if (ctrl_head_ < ctrl_fifo_.size()) {
    // Control frames preempt data and ignore the pause state.
    next = ctrl_fifo_[ctrl_head_];
    ++ctrl_head_;
    if (ctrl_head_ == ctrl_fifo_.size()) {
      ctrl_fifo_.clear();
      ctrl_head_ = 0;
    }
  } else {
    // Every serialization completion lands here, and an ACK-clocked NIC is
    // usually empty by then: test before paying for the dequeue.
    if (paused_ || queue_.empty()) return;
    next = queue_.dequeue();

    if (auto* a = INCAST_AUDITOR(sim_)) {
      a->record_depth("port.queue", queue_.packets(), queue_.bytes());
    }

    if (dequeue_tap_ != nullptr) dequeue_tap_->on_dequeue(*next, sim_.now());

    if (flow_tracer_ != nullptr && next->trace_enqueue_ns >= 0) {
      const std::int64_t wait = sim_.now().ns() - next->trace_enqueue_ns;
      // Pause ledger delta = pause time overlapping this packet's residency
      // (an open pause at enqueue is included by paused_ns() on both reads).
      std::int64_t pause = paused_ns() - next->trace_paused_ns;
      if (pause < 0) pause = 0;
      if (pause > wait) pause = wait;
      flow_tracer_->on_hop(next->tcp.flow_id, trace_tier_, wait - pause, pause,
                           bandwidth_.serialization_time(next->size_bytes).ns(),
                           propagation_delay_.ns());
      next->trace_enqueue_ns = -1;  // consumed; next hop re-stamps
    }

    // Only the forward path is measured: an ACK carries the receiver's
    // echo of its data packet's stack, which reverse-path hops must not
    // extend.
    if (int_stamping_ && next->int_slot != kNoIntSlot && next->is_data()) {
      if (!pool_->int_stack(*next)->push(IntHopRecord{
              .qlen_bytes = queue_.bytes(),
              .tx_bytes = queue_.stats().dequeued_bytes,
              .link_bps = bandwidth_.bps(),
              .timestamp_ns = sim_.now().ns(),
          })) {
        ++int_hop_overflows_;  // stack full: surfaced as net.int.hop_overflow
      }
    }
  }

  busy_ = true;
  const sim::Time serialization = bandwidth_.serialization_time(next->size_bytes);
  // Two-phase delivery: the transmitter frees up after serialization, then
  // the packet arrives at the peer one propagation delay later. The events
  // carry only the handle.
#if INCAST_AUDIT_ENABLED
  wire_bytes_ += next->size_bytes;
#endif
  sim_.schedule_in_keyed(serialization, next_key(), [this, p = next] {
    busy_ = false;
    deliver(p);
    maybe_transmit();
  }, sim::EventCategory::kNet);
}

void Port::deliver(Packet* p) {
  for (TxTap* tap : tx_taps_) tap->on_transmit(*p, sim_.now());
  sim::Time delay = propagation_delay_;
  bool duplicate = false;
  if (hook_ != nullptr) {
    const LinkHook::Verdict v = hook_->on_transmit(*p, sim_.now());
    if (v.drop) {  // lost on the wire; no buffer ever held it
#if INCAST_AUDIT_ENABLED
      wire_bytes_ -= p->size_bytes;
      if (auto* a = INCAST_AUDITOR(sim_)) {
        a->on_bytes_dropped(p->size_bytes);
        a->record_depth("port.wire", 0, wire_bytes_);
      }
#endif
      pool_->release(p);
      return;
    }
    if (v.corrupt) p->corrupted = true;
    delay += v.extra_delay;
    duplicate = v.duplicate;
  }
  if (bridge_ != nullptr) {
    // Cross-domain link: propagation happens in the destination domain.
    // The packet leaves this domain's pool and this port's wire ledger
    // here; the bridge's ingress ledger owns it until the arrival event
    // fires on the peer's simulator. The (time, key) stamp is assigned now,
    // on the transmit side, so merge order at the destination is exactly
    // the order an intra-domain delivery would have had.
    const sim::Time at = sim_.now() + delay;
    const IntStack* int_stack = pool_->int_stack(*p);
    bridge_->post(src_domain_, dst_domain_, at, next_key(), *p, int_stack, peer_,
                  peer_in_port_);
    if (duplicate) {
      // Posted after the original with a later key from the same lane, so
      // the destination still delivers original-then-copy. The copy is a
      // fresh injection at the duplication point (same ledger rule as the
      // intra-domain path).
#if INCAST_AUDIT_ENABLED
      if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_injected(p->size_bytes);
#endif
      bridge_->post(src_domain_, dst_domain_, at, next_key(), *p, int_stack, peer_,
                    peer_in_port_);
    }
#if INCAST_AUDIT_ENABLED
    wire_bytes_ -= p->size_bytes;
    if (auto* a = INCAST_AUDITOR(sim_)) a->record_depth("port.wire", 0, wire_bytes_);
#endif
    pool_->release(p);
    return;
  }
  if (duplicate) {
    // Scheduled after the original at the same timestamp, so FIFO
    // tie-breaking delivers original-then-copy.
    Packet* copy = pool_->clone(*p);
#if INCAST_AUDIT_ENABLED
    // A duplicated packet is a fresh injection at the duplication point —
    // that keeps the conservation ledger balanced when the copy is later
    // delivered or dropped like any other packet.
    wire_bytes_ += copy->size_bytes;
    if (auto* a = INCAST_AUDITOR(sim_)) a->on_bytes_injected(copy->size_bytes);
#endif
    sim_.schedule_in_keyed(delay, next_key(), [this, p] { arrive(p); },
                           sim::EventCategory::kNet);
    sim_.schedule_in_keyed(delay, next_key(), [this, copy] { arrive(copy); },
                           sim::EventCategory::kNet);
    return;
  }
  sim_.schedule_in_keyed(delay, next_key(), [this, p] { arrive(p); },
                         sim::EventCategory::kNet);
}

void Port::arrive(Packet* p) {
#if INCAST_AUDIT_ENABLED
  wire_bytes_ -= p->size_bytes;
  if (auto* a = INCAST_AUDITOR(sim_)) {
    a->record_depth("port.wire", 0, wire_bytes_);
  }
#endif
  peer_->receive(p, peer_in_port_);
}

void connect_duplex(Node& a, std::size_t ap, Node& b, std::size_t bp) {
  a.port(ap).connect(b, bp);
  b.port(bp).connect(a, ap);
}

}  // namespace incast::net
