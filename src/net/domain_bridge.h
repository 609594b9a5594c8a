// DomainBridge: cross-domain packet transport for the parallel engine.
//
// Under rack decomposition (fabric/fat_tree.h + sim/parallel_simulator.h)
// every link whose endpoints live in different domains routes its
// deliveries through this bridge instead of scheduling on the transmitting
// port's own simulator:
//
//   transmit side (during a window, on the src domain's thread):
//     Port::deliver posts {arrival time, tie-break key, packet, dst node,
//     in-port} to the (src, dst) mailbox, and the packet's INT stack (if
//     any) to the matching INT mailbox — plain vector appends of the
//     packet's one by-value copy on its way between pools; the mailboxes
//     are written by exactly one thread per window and read only at the
//     barrier, so the barrier mutex is the entire synchronization story.
//
//   barrier (coordinator, all domains quiescent):
//     drain_all() moves every entry into the destination domain's event
//     queue as a keyed arrival event. Keys were assigned on the transmit
//     side from the transmitting node's lane, so the destination queue's
//     (time, key) comparator merges cross-domain arrivals into exactly the
//     position an intra-domain delivery would have occupied — no sorting
//     pass, no per-mailbox cursors.
//
//     Conservative contract: every drained entry must arrive at or after
//     the end of the window that just executed. An earlier entry means the
//     configured lookahead overstates some link's propagation delay; the
//     violation is reported to the auditor (strict mode aborts the run) and
//     the delivery is clamped to the destination clock so a relaxed run can
//     limp on — explicitly outside the determinism contract.
//
// Drained packets land in the destination domain's own packet pool (only
// that domain's thread touches it between barriers). The bridge keeps the
// two ledgers the experiment layer needs: live packet bytes across every
// domain's pool (sampled at barriers for decomposition-invariant pool
// accounting) and in-flight ingress bytes (the bridge's share of the
// conservation residual at teardown).
#ifndef INCAST_NET_DOMAIN_BRIDGE_H_
#define INCAST_NET_DOMAIN_BRIDGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/node.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/auditor.h"
#include "sim/domain.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace incast::net {

class DomainBridge : public MailboxEgress {
 public:
  // `sims[d]` is domain d's simulator; borrowed, must outlive the bridge.
  explicit DomainBridge(std::vector<sim::Simulator*> sims);

  DomainBridge(const DomainBridge&) = delete;
  DomainBridge& operator=(const DomainBridge&) = delete;

  // Wires `nodes` for parallel execution: every port whose peer lives in a
  // different domain gets this bridge as its egress. Call after domains
  // are assigned (Node::set_domain) and topology is fully connected.
  // Returns the number of cross-domain ports wired.
  std::size_t attach(const std::vector<Node*>& nodes);

  // MailboxEgress: transmit-side handoff (src domain's thread).
  void post(int src_domain, int dst_domain, sim::Time at, std::uint64_t key,
            const Packet& p, const IntStack* int_stack, Node* dst,
            std::size_t dst_in_port) override;

  // Barrier-time drain of every mailbox into destination event queues.
  // `completed_end` is the exclusive end of the window that just executed;
  // entries earlier than it are lookahead violations, reported to
  // `auditor` (may be null). Runs with all domains quiescent.
  void drain_all(sim::Time completed_end, sim::Auditor* auditor);

  // Bytes of packets and INT stacks currently alive in every domain's
  // pool (only meaningful at a barrier, when every domain is quiescent).
  [[nodiscard]] std::uint64_t live_packet_bytes() const noexcept;

  // Bytes inside the bridge (drained into ingress pools, arrival event not
  // yet fired) — the bridge's share of the conservation residual. Mailboxes
  // themselves are always empty at a barrier after drain_all().
  [[nodiscard]] std::int64_t ingress_wire_bytes() const noexcept;

  // Lifetime count of cross-domain packets posted.
  [[nodiscard]] std::uint64_t packets_bridged() const noexcept {
    return grid_.total_posted();
  }

 private:
  struct MailEntry {
    sim::Time at;
    std::uint64_t key;
    Node* dst;
    std::size_t dst_in_port;
    // The packet's INT stack in the same (src, dst) box of int_grid_
    // (1-based; kNoIntSlot = none). packet.int_slot names a slot in the
    // source domain's pool and is meaningless here.
    std::uint32_t int_stack;
    Packet packet;
  };

  // Everything one domain's thread touches on the packet path, padded so
  // two domains' hot counters never share a cache line.
  struct alignas(64) PerDomain {
    std::int64_t ingress_bytes{0};
    PacketPool* pool{nullptr};
  };

  std::vector<sim::Simulator*> sims_;
  sim::MailboxGrid<MailEntry> grid_;
  // INT stacks of posted packets, beside grid_ so DCTCP mail stays small.
  sim::MailboxGrid<IntStack> int_grid_;
  std::vector<PerDomain> per_domain_;
};

}  // namespace incast::net

#endif  // INCAST_NET_DOMAIN_BRIDGE_H_
