// FatTree: a multi-tier Clos fabric builder on the net:: substrate.
//
// Builds the topology class the paper's Section 3 measurements come from: a
// pod-based fat-tree. Hosts sit under leaf (ToR) switches; leaves are
// grouped into pods. With aggs_per_pod == 0 the fabric is a two-tier
// leaf-spine: every leaf connects directly to every spine. With
// aggs_per_pod > 0 it is a three-tier Clos: leaves connect to their pod's
// aggregation switches, and every aggregation switch connects to every
// spine.
//
// Routing is destination-based up/down: traffic to a local host goes out
// the downlink; everything else climbs via an ECMP group over the uplinks
// and descends deterministically (spines reach a pod through an ECMP group
// over that pod's aggs in the three-tier case). All ECMP choices use the
// switches' seeded symmetric flow hash, so a seed fully determines every
// flow's path and a flow's ACKs hash identically to its data.
//
// Every unidirectional link is recorded in the LinkDirectory and answers to
// "<from>-><to>" (e.g. "p0.l1->s0"), so fault profiles and telemetry can
// address any fabric link uniformly.
//
// A build costs O(links + routes): each switch makes each of its route
// groups once (a leaf's uplinks, an agg's uplinks, a spine's descent into
// each pod, one group per downlink) and points every destination host at
// one, and no link name is built until one is asked for.
//
// The degenerate case — 1 pod, 2 leaves, 1 spine, no aggs, leaf uplinks at
// the dumbbell's core rate — reproduces the Section 4 dumbbell: senders on
// one leaf, receiver on the other, the same 10:1 bottleneck at the receiver
// downlink, with one extra switch hop through the spine.
#ifndef INCAST_FABRIC_FAT_TREE_H_
#define INCAST_FABRIC_FAT_TREE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/link_directory.h"
#include "net/switch.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace incast::fabric {

struct FatTreeConfig {
  int num_pods{2};
  int leaves_per_pod{2};
  int hosts_per_leaf{8};
  // Aggregation switches per pod; 0 builds the two-tier leaf-spine.
  int aggs_per_pod{0};
  int num_spines{2};

  // Link rates per tier. Oversubscription at the leaf is
  // (hosts_per_leaf * host_link) / (num_uplinks * leaf_uplink).
  sim::Bandwidth host_link{sim::Bandwidth::gigabits_per_second(10)};
  sim::Bandwidth leaf_uplink{sim::Bandwidth::gigabits_per_second(40)};
  // Agg <-> spine rate; unused in the two-tier fabric.
  sim::Bandwidth spine_link{sim::Bandwidth::gigabits_per_second(100)};

  sim::Time link_delay{sim::Time::nanoseconds(4500)};
  net::DropTailQueue::Config switch_queue{.capacity_packets = 1333,
                                          .ecn_threshold_packets = 65};
  net::DropTailQueue::Config host_queue{.capacity_packets = 1'000'000,
                                        .ecn_threshold_packets = 0};
  // If set, every leaf shares one buffer pool across its egress queues.
  std::optional<net::SharedBufferPool::Config> shared_buffer;

  // If set, every switch in the fabric runs PFC lossless Ethernet
  // (per-ingress VIQs pausing the upstream hop at XOFF) — the lossless
  // column of the scenario matrix.
  std::optional<net::LosslessInputQueue::Config> pfc;

  // Seed for every switch's ECMP flow hash. Distinct seeds yield distinct
  // collision patterns; a fixed seed reproduces the exact path assignment.
  std::uint64_t ecmp_seed{1};
};

// Canonical node names, shared by builders and tests: pods are p<i>, leaves
// p<i>.l<j>, hosts p<i>.l<j>.h<k>, aggs p<i>.a<j>, spines s<i>. Link names
// in the LinkDirectory are "<from>-><to>" of these.
[[nodiscard]] std::string host_node_name(int pod, int leaf, int slot);
[[nodiscard]] std::string leaf_node_name(int pod, int leaf);
[[nodiscard]] std::string agg_node_name(int pod, int agg);
[[nodiscard]] std::string spine_node_name(int spine);

// How a fabric is sharded across parallel-engine domains. A rack (one leaf
// switch plus its hosts) is the atomic unit: host<->leaf links carry the
// heaviest traffic and must never cross a domain boundary, so only
// leaf<->agg/spine (and agg<->spine) links become mailbox links.
struct DomainAssignment {
  int domains{1};
  std::vector<int> leaf_domain;   // per global leaf; its hosts follow it
  std::vector<int> agg_domain;    // per global agg (pod-major)
  std::vector<int> spine_domain;  // per spine
  // Conservative lookahead: the minimum propagation delay over every link
  // that can cross domains under this assignment.
  sim::Time lookahead{sim::Time::zero()};
};

// Rack-domain decomposition: leaves (with their racks) round-robin over the
// domains, and the core tier (aggs in a three-tier fabric, spines always)
// round-robins as well, so core switches spread across domains instead of
// serializing on one. `domains` may exceed the entity count — surplus
// domains simply idle. Throws std::invalid_argument on domains < 1.
[[nodiscard]] DomainAssignment assign_rack_domains(const FatTreeConfig& config,
                                                   int domains);

class FatTree : public net::LinkDirectory {
 public:
  // Throws std::invalid_argument on a non-positive pod/leaf/host/spine
  // count or a negative agg count.
  FatTree(sim::Simulator& sim, const FatTreeConfig& config);

  // Domain-decomposed build for the parallel engine: every node is
  // constructed against its domain's simulator (`sims[d]` = domain d) and
  // tagged with Node::set_domain, so a DomainBridge can be attached over
  // nodes(). Node ids, link wiring, routes, and ECMP seeding are identical
  // to the single-simulator build — decomposition changes where events
  // execute, never what the topology is. Throws std::invalid_argument if
  // the assignment's shape does not match the config or an index is out of
  // range of `sims`.
  FatTree(const std::vector<sim::Simulator*>& sims,
          const DomainAssignment& assignment, const FatTreeConfig& config);

  [[nodiscard]] const FatTreeConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool three_tier() const noexcept { return config_.aggs_per_pod > 0; }

  [[nodiscard]] int num_leaves() const noexcept {
    return config_.num_pods * config_.leaves_per_pod;
  }
  [[nodiscard]] int num_hosts() const noexcept {
    return num_leaves() * config_.hosts_per_leaf;
  }

  // Host addressing: global index i lives in slot (i % hosts_per_leaf) of
  // global leaf (i / hosts_per_leaf); leaves are pod-major.
  [[nodiscard]] net::Host& host(int i) { return *hosts_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] net::Host& host(int pod, int leaf, int slot);
  [[nodiscard]] net::Switch& leaf(int global_leaf) {
    return *leaves_.at(static_cast<std::size_t>(global_leaf));
  }
  [[nodiscard]] net::Switch& leaf(int pod, int l) {
    return leaf(pod * config_.leaves_per_pod + l);
  }
  [[nodiscard]] net::Switch& agg(int pod, int a);
  [[nodiscard]] net::Switch& spine(int s) {
    return *spines_.at(static_cast<std::size_t>(s));
  }
  [[nodiscard]] int leaf_of_host(int host) const noexcept {
    return host / config_.hosts_per_leaf;
  }
  [[nodiscard]] int pod_of_leaf(int global_leaf) const noexcept {
    return global_leaf / config_.leaves_per_pod;
  }

  // Every switch, for teardown checks (check_no_unrouted) and sweeps.
  [[nodiscard]] std::vector<net::Switch*> switches();

  // Every node (hosts, then leaves, aggs, spines — id order), for
  // DomainBridge::attach and whole-fabric walks.
  [[nodiscard]] std::vector<net::Node*> nodes();

  // The leaf egress queue feeding host i's downlink — the incast bottleneck
  // when i is a receiver.
  [[nodiscard]] net::DropTailQueue& downlink_queue(int host);
  // That link's LinkDirectory name, e.g. "p0.l1->p0.l1.h0" — the label
  // telemetry and fault profiles use to address the bottleneck hop.
  [[nodiscard]] std::string downlink_name(int host) const;

  // Uplink egress ports of one leaf, in spine/agg order (the ECMP group
  // member order), and their port indices on the leaf switch.
  [[nodiscard]] std::vector<net::Port*> leaf_uplink_ports(int global_leaf);
  [[nodiscard]] const std::vector<std::size_t>& leaf_uplink_port_indices(
      int global_leaf) const {
    return leaf_uplinks_.at(static_cast<std::size_t>(global_leaf));
  }

  // Link names of one leaf's uplinks, e.g. "p0.l1->s0" — vantage points for
  // leaf-tier telemetry.
  [[nodiscard]] std::vector<std::string> leaf_uplink_names(int global_leaf) const;

  // Link names of the spine-tier egress ports that carry traffic descending
  // toward `global_leaf` (spine->leaf in two-tier, spine->agg of the leaf's
  // pod in three-tier) — vantage points for spine-tier telemetry.
  [[nodiscard]] std::vector<std::string> spine_egress_names_toward(int global_leaf) const;

  // Host downlink oversubscription ratio at the leaf tier, e.g. 2.0 means
  // hosts can offer twice the uplink capacity.
  [[nodiscard]] double oversubscription() const noexcept;

  // Unloaded RTT between two hosts under different leaves for an MTU data
  // packet and its pure ACK (used to size experiment windows).
  [[nodiscard]] sim::Time base_rtt(std::int64_t data_bytes = 1500) const;

 private:
  FatTreeConfig config_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<net::Switch>> leaves_;
  std::vector<std::unique_ptr<net::Switch>> aggs_;    // pod-major
  std::vector<std::unique_ptr<net::Switch>> spines_;
  // Per global leaf: port index of each host downlink (slot order) and each
  // uplink (spine/agg order).
  std::vector<std::vector<std::size_t>> leaf_downlinks_;
  std::vector<std::vector<std::size_t>> leaf_uplinks_;
};

}  // namespace incast::fabric

#endif  // INCAST_FABRIC_FAT_TREE_H_
