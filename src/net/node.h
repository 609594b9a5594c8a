// Node and Port: devices and their egress interfaces.
//
// A Node is anything with network ports (Host, Switch). A Port is one
// unidirectional egress interface: it holds a DropTailQueue and a transmitter
// that serializes packets at the port's line rate, then delivers them to the
// connected peer after the link's propagation delay. Full-duplex links are
// simply a pair of Ports, one on each endpoint.
//
// Packets travel as handles into the event loop's PacketPool
// (net/packet_pool.h). Whoever holds a handle owns the packet: send() and
// receive() pass ownership on, and whoever drops or consumes a packet
// releases it to the pool.
#ifndef INCAST_NET_NODE_H_
#define INCAST_NET_NODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/queue.h"
#include "sim/domain.h"
#include "sim/simulator.h"
#include "sim/stable_arena.h"
#include "sim/units.h"

namespace incast::obs {
class FlowTracer;
class Hub;
enum class HopTier : std::uint8_t;
}  // namespace incast::obs

namespace incast::net {

class Node;

// Intercepts packets at the moment they leave a Port for the wire. The
// fault-injection layer (src/fault) installs these; with no hook installed a
// Port delivers every packet unchanged, on exactly the code path it always
// had. The hook is consulted once per transmitted packet, after
// serialization completes and before propagation is scheduled, so a dropped
// packet still consumed its serialization time (as a real lossy link would).
class LinkHook {
 public:
  virtual ~LinkHook() = default;

  struct Verdict {
    bool drop{false};       // packet vanishes on the wire
    bool corrupt{false};    // delivered, but with a failed checksum
    bool duplicate{false};  // a second copy arrives right after the original
    sim::Time extra_delay{sim::Time::zero()};  // added propagation (reordering)
  };

  virtual Verdict on_transmit(const Packet& p, sim::Time now) = 0;
};

// Read-only observer of every packet a Port transmits, notified when
// serialization completes (the moment the frame hits the wire), before any
// fault hook can drop it — matching real port counters, which count
// transmitted frames whether or not the wire later loses them. This is how
// switch-side telemetry (per-port Millisampler-style byte counters) attaches
// without perturbing the data path.
class TxTap {
 public:
  virtual ~TxTap() = default;
  virtual void on_transmit(const Packet& p, sim::Time now) = 0;
};

// Observes every packet the moment it is pulled off the egress queue for
// serialization (control frames excluded — they never entered the queue).
// This is how a PFC switch credits the ingress virtual input queue a
// departing packet was charged to.
class DequeueTap {
 public:
  virtual ~DequeueTap() = default;
  virtual void on_dequeue(const Packet& p, sim::Time now) = 0;
};

// Egress side of a cross-domain link under the parallel engine: instead of
// scheduling the propagation arrival on its own simulator, a bridged Port
// posts a copy of the packet (and of its INT stack, when it carries one) —
// stamped with its arrival time and decomposition-invariant tie-break key —
// to a mailbox owned by the destination domain (net/domain_bridge.h), then
// releases its own handle: pools are per domain. With no bridge installed
// (the default, and always for intra-domain links), a Port files each
// arrival on its own simulator.
class MailboxEgress {
 public:
  virtual ~MailboxEgress() = default;
  virtual void post(int src_domain, int dst_domain, sim::Time at,
                    std::uint64_t key, const Packet& p, const IntStack* int_stack,
                    Node* dst, std::size_t dst_in_port) = 0;
};

class Port {
  static constexpr sim::DelayLine kNoLine{static_cast<std::uint32_t>(-1)};

 public:
  Port(sim::Simulator& sim, sim::Bandwidth bandwidth, sim::Time propagation_delay,
       const DropTailQueue::Config& queue_config)
      : sim_{sim},
        pool_{&packet_pool(sim)},
        bandwidth_{bandwidth},
        propagation_delay_{propagation_delay},
        flow_tracer_{sim.flow_tracer()},
        queue_{queue_config} {}

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  // Wires this port's output to `peer`; delivered packets arrive via
  // peer.receive(handle, peer_in_port).
  void connect(Node& peer, std::size_t peer_in_port) noexcept {
    peer_ = &peer;
    peer_in_port_ = peer_in_port;
  }

  [[nodiscard]] bool connected() const noexcept { return peer_ != nullptr; }
  [[nodiscard]] Node* peer() const noexcept { return peer_; }

  // Takes `p` (a handle from this loop's pool) and queues it for
  // transmission, starting the transmitter if idle. The queue may ECN-mark,
  // trim, or drop the packet; a dropped packet is released here. Returns
  // the queue's verdict, which the auditor and, on a labeled port, the
  // trace have already seen.
  EnqueueVerdict send(Packet* p);

  // Takes a MAC control frame (PFC pause/resume) and queues it on a
  // strict-priority path: control frames bypass the egress queue entirely
  // and are emitted even while the port itself is paused — otherwise a
  // congestion tree could never be torn down.
  void send_control(Packet* p);

  // PFC pause of this port's data transmission. pause_for() (re)arms an
  // auto-expiry at now + duration — real PFC quanta time out, which is the
  // deadlock watchdog: a lost resume frame degrades into a shorter pause,
  // never a hang. resume() lifts the pause early (the resume frame case).
  void pause_for(sim::Time duration);
  void resume();
  [[nodiscard]] bool pfc_paused() const noexcept { return paused_; }
  // Times this port entered the paused state.
  [[nodiscard]] std::int64_t pause_count() const noexcept { return pause_count_; }
  // Cumulative time spent paused, including the currently open pause.
  [[nodiscard]] std::int64_t paused_ns() const noexcept;

  [[nodiscard]] DropTailQueue& queue() noexcept { return queue_; }
  [[nodiscard]] const DropTailQueue& queue() const noexcept { return queue_; }
  [[nodiscard]] sim::Bandwidth bandwidth() const noexcept { return bandwidth_; }
  [[nodiscard]] sim::Time propagation_delay() const noexcept { return propagation_delay_; }
  [[nodiscard]] bool busy() const noexcept { return busy_; }

  // Switch egress ports stamp INT telemetry onto data packets that carry
  // an INT stack, at dequeue (HPCC-style). Off by default; the topology
  // builder enables it on switch ports.
  void set_int_stamping(bool enabled) noexcept { int_stamping_ = enabled; }
  [[nodiscard]] bool int_stamping() const noexcept { return int_stamping_; }

  // Installs (or clears, with nullptr) the link-fault hook for this port's
  // outgoing direction. The hook must outlive the port or be cleared first.
  void set_link_hook(LinkHook* hook) noexcept { hook_ = hook; }
  [[nodiscard]] LinkHook* link_hook() const noexcept { return hook_; }

  // Adds a read-only observer of transmitted packets (e.g. a PortSampler).
  // Taps must outlive the port's traffic.
  void add_tx_tap(TxTap* tap) { tx_taps_.push_back(tap); }

  // Installs (or clears) the dequeue observer. At most one; it must
  // outlive the port's traffic.
  void set_dequeue_tap(DequeueTap* tap) noexcept { dequeue_tap_ = tap; }

  // Which topology tier this port's egress queue belongs to, for the
  // flow tracer's per-tier queueing attribution (obs::HopTier). Builders
  // tag ports once at construction; untagged ports report kUnknown.
  void set_trace_tier(obs::HopTier tier) noexcept { trace_tier_ = tier; }
  [[nodiscard]] obs::HopTier trace_tier() const noexcept { return trace_tier_; }

  // INT hop records that could not be stamped because the packet's stack
  // was already at kMaxIntHops — silent truncation made loud (satellite of
  // the tail-autopsy work; surfaced as the net.int.hop_overflow metric).
  [[nodiscard]] std::int64_t int_hop_overflows() const noexcept {
    return int_hop_overflows_;
  }

  // Names this port for the observability layer: while the hub traces, each
  // drop, ECN mark and trim (one that cut bytes) is emitted as a
  // "<label>.drop" / "<label>.ecn_mark" / "<label>.trim" instant on the
  // queue track. Unlabeled ports emit none. No-op when the simulator
  // carries no hub.
  void set_trace_label(const std::string& label);

  // Bytes currently in flight on this port (being serialized or
  // propagating) — the wire half of the auditor's residual-bytes walk.
  // Maintained only when the audit hooks are compiled in; always 0 under
  // -DINCAST_AUDIT=OFF.
  [[nodiscard]] std::int64_t wire_bytes() const noexcept { return wire_bytes_; }

  // --- Parallel-engine wiring (net/domain_bridge.h) -----------------------

  // Back-pointer to the owning Node, set by Node::add_port. The parallel
  // engine draws equal-time tie-break keys from the owner's lane.
  void set_owner(Node* owner) noexcept { owner_ = owner; }

  // Routes this port's deliveries through a cross-domain mailbox instead of
  // local scheduling. Install only on ports whose peer lives in a different
  // domain; the bridge must outlive the port's traffic.
  void set_bridge(MailboxEgress* bridge, int src_domain, int dst_domain) noexcept {
    bridge_ = bridge;
    src_domain_ = src_domain;
    dst_domain_ = dst_domain;
  }

 private:
  void maybe_transmit();
  // Emits the trace instant for a non-kQueued `verdict` on `p`, if the hub
  // is tracing.
  void trace_verdict(EnqueueVerdict verdict, const Packet& p);
  // Consults the hook (if any) and schedules the packet's arrival at the
  // peer after propagation. `p` is owned by this port; it is released (or
  // handed to the propagation event) before returning.
  void deliver(Packet* p);
  // Next equal-time tie-break key from the owning node's lane in keyed
  // mode; 0 otherwise, where schedule_*_keyed ignores the key, so an
  // unkeyed hop never touches the owner (defined in node.cc — needs the
  // full Node type).
  [[nodiscard]] std::uint64_t next_key();
  // Files `p`'s arrival at the peer `delay` from now: on the simulator's
  // delay line for this link's propagation delay when the delay is exactly
  // that and the run is unkeyed, otherwise as a closure event.
  void file_arrival(sim::Time delay, Packet* p);
  // Fires when a packet finishes propagating: hands it to the peer.
  void arrive(Packet* p);
  // The delay line's fire: arrive(item) on port `owner`.
  static void arrive_from_line(void* owner, void* item) {
    static_cast<Port*>(owner)->arrive(static_cast<Packet*>(item));
  }
  // Closes the open pause interval and restarts transmission.
  void finish_pause();

  // Hot first: the fields send(), maybe_transmit() and a delivery read on
  // every packet, then the queue (which orders its own fields the same
  // way), then what only taps, faults, PFC, tracing and the parallel
  // engine read.
  sim::Simulator& sim_;
  // The event loop's packet pool: where dropped packets go back, and where
  // INT stacks and fault-injected duplicates live.
  PacketPool* pool_;
  Node* peer_{nullptr};
  std::size_t peer_in_port_{0};
  sim::Bandwidth bandwidth_;
  sim::Time propagation_delay_;
  obs::Hub* trace_hub_{nullptr};
  // Cached at construction, like trace_hub_: nullptr (no tracer attached)
  // keeps the per-packet hooks to a single predictable branch.
  obs::FlowTracer* flow_tracer_{nullptr};
  // Pending control frames, strictly ahead of the data queue. Control
  // traffic is rare (state transitions only), so a plain vector FIFO is
  // fine here.
  std::vector<Packet*> ctrl_fifo_;
  std::size_t ctrl_head_{0};
  DequeueTap* dequeue_tap_{nullptr};
  std::int64_t wire_bytes_{0};
  bool busy_{false};
  bool paused_{false};
  bool int_stamping_{false};
  obs::HopTier trace_tier_{};  // zero-initialized = kUnknown
  // The line arrivals are filed on; fetched on the first delivery that
  // uses it, so a keyed run never makes one. It sits in the padding before
  // the queue, so the port's size and layout are unchanged.
  sim::DelayLine line_{kNoLine};
  DropTailQueue queue_;

  std::vector<TxTap*> tx_taps_;
  LinkHook* hook_{nullptr};
  MailboxEgress* bridge_{nullptr};
  int src_domain_{0};
  int dst_domain_{0};
  Node* owner_{nullptr};
  // PFC pause ledger. The epoch invalidates stale auto-expiry events when a
  // refresh or an early resume supersedes them.
  std::uint64_t pause_epoch_{0};
  std::int64_t pause_started_ns_{0};
  std::int64_t pause_count_{0};
  std::int64_t paused_ns_total_{0};
  std::int64_t int_hop_overflows_{0};
  std::string drop_event_name_;
  std::string mark_event_name_;
  std::string trim_event_name_;
  std::string pause_event_name_;
  std::string resume_event_name_;
};

class Node {
 public:
  Node(sim::Simulator& sim, NodeId id, std::string name)
      : sim_{sim}, packets_{packet_pool(sim)}, id_{id}, name_{std::move(name)} {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Hands this node a packet that finished traversing a link. The node
  // owns `p` from here on: it forwards it or releases it.
  virtual void receive(Packet* p, std::size_t in_port) = 0;

  // Adds an egress port. Returns its index.
  std::size_t add_port(sim::Bandwidth bandwidth, sim::Time propagation_delay,
                       const DropTailQueue::Config& queue_config) {
    ports_.emplace_back(sim_, bandwidth, propagation_delay, queue_config);
    ports_[ports_.size() - 1].set_owner(this);
    return ports_.size() - 1;
  }

  [[nodiscard]] Port& port(std::size_t i) { return ports_[i]; }
  [[nodiscard]] const Port& port(std::size_t i) const { return ports_[i]; }
  [[nodiscard]] std::size_t num_ports() const noexcept { return ports_.size(); }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  // The event loop's packet pool: where this node's packets are made and
  // released.
  [[nodiscard]] PacketPool& packets() noexcept { return packets_; }

  // Which parallel-engine domain this node executes in (0 when the run is
  // not decomposed). Assigned once by the topology builder.
  void set_domain(int domain) noexcept { domain_ = domain; }
  [[nodiscard]] int domain() const noexcept { return domain_; }

  // Next equal-time tie-break key from this node's lane (sim/domain.h).
  // Lane = NodeId + 1, so node lanes never collide with the ambient lane;
  // node ids are assigned in deterministic topology-construction order, so
  // keys are decomposition-invariant. Only code executing in this node's
  // domain may call this — lane counters are unsynchronized by design.
  [[nodiscard]] std::uint64_t next_event_key() noexcept {
    return sim::make_event_key(static_cast<std::uint64_t>(id_) + 1, lane_seq_++);
  }

  // Total INT hop-stamp overflows across this node's ports (see
  // Port::int_hop_overflows).
  [[nodiscard]] std::int64_t int_hop_overflows() const noexcept {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < ports_.size(); ++i) total += ports_[i].int_hop_overflows();
    return total;
  }

 protected:
  sim::Simulator& sim_;
  PacketPool& packets_;

 private:
  NodeId id_;
  std::string name_;
  int domain_{0};
  std::uint64_t lane_seq_{0};
  // Ports are address-pinned (their closures capture `this`), so they live
  // in a chunked arena: stable addresses, 8 ports per heap allocation
  // instead of one each, and chunk-local contiguity for the port walks the
  // auditor and telemetry layers do.
  sim::StableChunkArena<Port, 8> ports_;
};

// Connects a full-duplex link: a.port(ap) -> b as b's in-port bp, and
// b.port(bp) -> a as a's in-port ap.
void connect_duplex(Node& a, std::size_t ap, Node& b, std::size_t bp);

}  // namespace incast::net

#endif  // INCAST_NET_NODE_H_
