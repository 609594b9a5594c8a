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
// (docs/PERFORMANCE.md). A switch stores each distinct member list once, in
// a shared group table of egress Port pointers; each destination maps, by
// the dense NodeIds the topology builders assign, to a 4-byte {offset,
// count} slice of that table. A fat-tree switch routes hundreds of
// destinations over a handful of lists (its uplink group, one downlink per
// pod or host), so the tables stay cache-resident however large the fabric.
// Programming costs O(1) per destination: a builder makes each group once
// with route_group(), which returns the stored slice (finding an identical
// list rather than storing it twice), and points every destination that
// uses it at that RouteRef with set_route(). A fat-tree build is O(routes),
// with no per-destination search or member-list copy.
// receive() keeps no per-flow state — an ECMP choice is the flow hash
// alone, so route_port() predicts it exactly and any per-flow spread is
// computed from the flow list (see core::FabricIncastExperimentResult::
// leaf_ecmp).
//
// Egress queues apply ECN marking and tail drop; optionally all of a
// switch's queues can share one SharedBufferPool, modelling the dynamically
// shared buffers of production ToRs.
#ifndef INCAST_NET_SWITCH_H_
#define INCAST_NET_SWITCH_H_

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/node.h"
#include "net/pfc.h"
#include "net/shared_buffer.h"

namespace incast::net {

class Switch : public Node, private DequeueTap {
 public:
  using Node::Node;

  // A slice of the group table: one stored member list, which any number
  // of destinations may point at. count == 0 means unrouted.
  struct RouteRef {
    std::uint32_t offset : 20 {0};
    std::uint32_t count : 12 {0};
  };
  static_assert(sizeof(RouteRef) == 4, "one destination's route is meant to stay 4 bytes");

  // The stored route group over `out_ports`, existing ports in member
  // order: appended to the group table unless an identical list is already
  // there. Member order is part of the group: two switches programmed with
  // their members in the same peer order make symmetric choices for a flow
  // and its ACKs, and a multi-member group is an ECMP group. Throws
  // std::length_error for a group wider than kMaxRouteWidth members, or if
  // the table would pass kMaxGroupEntries members. Builders make each group
  // once and hand the RouteRef to every destination that uses it.
  [[nodiscard]] RouteRef route_group(std::span<const std::size_t> out_ports);

  // Routes packets destined to `dst` across `group`, a RouteRef this
  // switch's route_group() returned. Replaces any earlier route to `dst`
  // and never changes another destination's: stored groups are never
  // rewritten.
  void set_route(NodeId dst, RouteRef group);

  // Shorthands: a static route out of one port, and an ECMP route over a
  // member list.
  void set_route(NodeId dst, std::size_t out_port) {
    set_route(dst, route_group({&out_port, 1}));
  }
  void set_ecmp_route(NodeId dst, std::span<const std::size_t> out_ports) {
    set_route(dst, route_group(out_ports));
  }

  // Sizes the per-destination table for NodeIds below `destinations` at
  // once. Without it, programming destinations one by one grows the table
  // geometrically past the highest routed NodeId, and routing_bytes()
  // counts the spare entries. Call before programming routes.
  void size_routes(std::size_t destinations);

  // Capacity of a switch's shared group table, and the widest group, in
  // members: a slice is a 20-bit offset and a 12-bit count. Every port
  // routed to alone takes one member, so a switch routes over up to about
  // a million ports.
  static constexpr std::size_t kMaxGroupEntries = (std::size_t{1} << 20) - 1;
  static constexpr std::size_t kMaxRouteWidth = (std::size_t{1} << 12) - 1;

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

  // Bytes held by the routing tables (per-destination slices, the group
  // table and its distinct-list indexes) — this switch's contribution to the
  // experiment bytes-per-flow budget.
  [[nodiscard]] std::size_t routing_bytes() const noexcept;

 private:
  [[nodiscard]] std::uint64_t flow_key(NodeId src, NodeId dst, FlowId flow) const noexcept;

  // Appends `ports` to the group table; throws std::length_error if the
  // table would pass kMaxGroupEntries.
  [[nodiscard]] RouteRef append_group(std::span<const std::size_t> ports);

  // DequeueTap: a packet left egress port — credit the VIQ it was charged
  // to on arrival (if any).
  void on_dequeue(const Packet& p, sim::Time now) override;
  // Credits `bytes` back to VIQ `viq`, sending the resume frame upstream
  // when the credit crosses XON.
  void credit_viq(std::size_t viq, std::int64_t bytes);
  // Applies an arriving pause/resume control frame to the egress port
  // facing the neighbor that sent it.
  void apply_ctrl(const Packet& p, std::size_t in_port);

  // Flat routing: route_ref_[dst] slices the group table (members in
  // programmed order). Its size is proportional to the highest routed
  // NodeId, which the topology builders keep dense; the group table's is
  // proportional to the distinct member lists. group_ports_ is what a hop
  // reads; group_index_ holds the same members as port indices for
  // route_port(). For programming, singles_[port] is the port's one-member
  // slice (count 0 until first stored) and multi_ lists each distinct
  // multi-member slice once; a fat-tree switch has at most one of those per
  // pod.
  std::vector<RouteRef> route_ref_;
  std::vector<Port*> group_ports_;
  std::vector<std::uint32_t> group_index_;
  std::vector<RouteRef> singles_;
  std::vector<RouteRef> multi_;

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
