// Switch: an output-queued switch with destination-based routing and ECMP.
//
// On ingress, the switch looks up the route entry for the packet's
// destination node. A route is a group of one or more egress ports: single-
// port groups forward directly (the classic static route), multi-port groups
// are ECMP groups resolved by a deterministic, seeded flow hash, so a given
// (src, dst, flow) always takes the same member port within a run and the
// whole path assignment is reproducible from the seed. The hash is symmetric
// in (src, dst): a flow's ACKs hash identically to its data, so switches
// with equally-sized groups pick the same member index in both directions.
//
// Routing is flat, stateless and allocation-free on the hot path
// (docs/PERFORMANCE.md): set_route()/set_ecmp_route() write straight into a
// per-destination next-hop array indexed by the dense NodeIds the topology
// builders assign, and receive() keeps no per-flow state — an ECMP choice
// is the flow hash alone, so route_port() predicts it exactly and any
// per-flow spread is computed from the flow list (see
// core::FabricIncastExperimentResult::leaf_ecmp).
//
// Egress queues apply ECN marking and tail drop; optionally all of a
// switch's queues can share one SharedBufferPool, modelling the dynamically
// shared buffers of production ToRs.
#ifndef INCAST_NET_SWITCH_H_
#define INCAST_NET_SWITCH_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/node.h"
#include "net/pfc.h"
#include "net/shared_buffer.h"

namespace incast::net {

class Switch : public Node, private DequeueTap {
 public:
  using Node::Node;

  // Routes packets destined to `dst` out of `out_port`.
  void set_route(NodeId dst, std::size_t out_port);

  // Routes packets destined to `dst` across an ECMP group. Member order is
  // part of the route: two switches programmed with their members in the
  // same peer order make symmetric choices for a flow and its ACKs.
  void set_ecmp_route(NodeId dst, std::vector<std::size_t> out_ports);

  // Seed for the ECMP flow hash. Distinct seeds give independent collision
  // patterns; the same seed reproduces the exact path assignment.
  void set_ecmp_seed(std::uint64_t seed) noexcept { ecmp_seed_ = seed; }
  [[nodiscard]] std::uint64_t ecmp_seed() const noexcept { return ecmp_seed_; }

  // The egress port receive() chooses for this (src, dst, flow); nullopt
  // if dst has no route.
  [[nodiscard]] std::optional<std::size_t> route_port(NodeId src, NodeId dst,
                                                      FlowId flow) const;

  // Members of the route to `dst`: 0 when unrouted, 1 for a static route,
  // more for an ECMP group.
  [[nodiscard]] std::size_t route_width(NodeId dst) const noexcept {
    return static_cast<std::size_t>(dst) < route_ref_.size() ? route_ref_[dst].count : 0;
  }

  // Creates a shared buffer pool and attaches it to every *current* port's
  // queue. Call after all ports have been added.
  SharedBufferPool& enable_shared_buffer(const SharedBufferPool::Config& config);

  [[nodiscard]] SharedBufferPool* shared_buffer() noexcept { return pool_.get(); }

  // Turns on PFC lossless operation: one LosslessInputQueue per *current*
  // port (the full-duplex wiring convention means in-port index i pairs
  // with egress port i toward the same neighbor), this switch installed as
  // every port's DequeueTap so departures credit the right VIQ, and — when
  // a shared buffer is attached — the VIQ headroom carved out of the pool,
  // as real lossless ToRs reserve it. Call after all ports exist (and
  // after enable_shared_buffer, if used).
  void enable_pfc(const LosslessInputQueue::Config& config);

  [[nodiscard]] bool pfc_enabled() const noexcept { return !viqs_.empty(); }
  // The VIQ accounting for ingress port `i`; nullptr when PFC is off.
  [[nodiscard]] const LosslessInputQueue* viq(std::size_t i) const noexcept {
    return i < viqs_.size() ? &viqs_[i] : nullptr;
  }
  [[nodiscard]] std::size_t num_viqs() const noexcept { return viqs_.size(); }

  void receive(Packet* p, std::size_t in_port) override;

  // Packets that arrived with no matching route (a topology bug).
  [[nodiscard]] std::int64_t unrouted_packets() const noexcept { return unrouted_packets_; }
  // Per-destination breakdown of unrouted packets, for loud teardown checks.
  [[nodiscard]] const std::unordered_map<NodeId, std::int64_t>& unrouted_by_dst()
      const noexcept {
    return unrouted_by_dst_;
  }

  // Bytes held by the flat next-hop arrays — this switch's contribution to
  // the experiment bytes-per-flow budget.
  [[nodiscard]] std::size_t routing_bytes() const noexcept;

 private:
  // One destination's slice of route_ports_; count == 0 means unrouted.
  struct RouteRef {
    std::uint32_t offset{0};
    std::uint32_t count{0};
  };

  [[nodiscard]] std::uint64_t flow_key(NodeId src, NodeId dst, FlowId flow) const noexcept;

  // Grows route_ref_ to cover `dst` and points it at a fresh group slice.
  // Re-programming a destination abandons its old slice (construction-time
  // only; topology builders program each (switch, dst) exactly once).
  void store_route(NodeId dst, const std::size_t* ports, std::size_t count);

  // DequeueTap: a packet left egress port — credit the VIQ it was charged
  // to on arrival (if any).
  void on_dequeue(const Packet& p, sim::Time now) override;
  // Credits `bytes` back to VIQ `viq`, sending the resume frame upstream
  // when the credit crosses XON.
  void credit_viq(std::size_t viq, std::int64_t bytes);
  // Applies an arriving pause/resume control frame to the egress port
  // facing the neighbor that sent it.
  void apply_ctrl(const Packet& p, std::size_t in_port);

  // Flat routing: route_ref_[dst] slices route_ports_ (group members in
  // programmed order). Memory is proportional to the highest routed NodeId,
  // which the topology builders keep dense.
  std::vector<RouteRef> route_ref_;
  std::vector<std::uint32_t> route_ports_;

  std::unique_ptr<SharedBufferPool> pool_;
  std::vector<LosslessInputQueue> viqs_;
  std::uint64_t ecmp_seed_{1};

  std::int64_t unrouted_packets_{0};
  std::unordered_map<NodeId, std::int64_t> unrouted_by_dst_;
};

// Throws std::runtime_error naming the switch, the offending destination(s),
// and the packet counts if `sw` blackholed any packet. Experiments call this
// at teardown so a routing bug fails the run loudly instead of silently
// reducing traffic.
void check_no_unrouted(const Switch& sw);

// Checks every switch in the collection.
void check_no_unrouted(const std::vector<Switch*>& switches);

}  // namespace incast::net

#endif  // INCAST_NET_SWITCH_H_
