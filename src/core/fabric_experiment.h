// FabricIncastExperiment: the cyclic incast run across a multi-tier Clos
// fabric instead of the Section 4 dumbbell.
//
// Senders are placed across racks (round-robin over every leaf except the
// receiver's) or on a single rack (the dumbbell's shape), and the same
// cyclic burst workload drives them toward one receiver. Beyond the
// dumbbell's receiver-NIC view, the run samples Millisampler-style 1 ms
// byte counters at three vantage points — the receiver host NIC, every
// leaf's uplinks, and the spine ports descending toward the receiver — so
// burst visibility can be compared across tiers, and it reports each leaf's
// ECMP flow spread so uplink collisions are measurable.
//
// With 1 pod, 2 leaves, 1 spine and the leaf uplink at the dumbbell's core
// rate (see dumbbell_equivalent_config), the fabric degenerates to the
// dumbbell and must reproduce its safe/degenerate/collapse mode
// classification — the equivalence tests pin that down.
#ifndef INCAST_CORE_FABRIC_EXPERIMENT_H_
#define INCAST_CORE_FABRIC_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/incast_experiment.h"
#include "core/resilience_experiment.h"
#include "fabric/fat_tree.h"
#include "telemetry/millisampler.h"

namespace incast::core {

struct FabricIncastExperimentConfig : CyclicIncastSettings {
  // A fabric run defaults to 96 flows over 4 bursts.
  FabricIncastExperimentConfig() {
    num_flows = 96;
    num_bursts = 4;
  }

  // kCrossRack spreads senders round-robin over every leaf except the
  // receiver's; kSingleRack packs them onto one leaf (the dumbbell shape).
  enum class Placement { kCrossRack, kSingleRack };
  Placement placement{Placement::kCrossRack};

  fabric::FatTreeConfig fabric{};

  // Bin width for every Millisampler-style vantage trace.
  sim::Time telemetry_bin{sim::Time::milliseconds(1)};

  // Faults on arbitrary named fabric links (LinkDirectory names).
  std::vector<NamedLinkFault> link_faults{};
};

// One Millisampler-format trace collected at a vantage point.
struct VantageTrace {
  std::string tier;  // "host" | "leaf" | "agg-spine" (per fabric tier)
  std::string name;  // host node name or LinkDirectory link name
  sim::Bandwidth line_rate{};
  std::vector<telemetry::Millisampler::Bin> bins;
  // Windowed (1 ms) high watermarks of the egress queue feeding this
  // vantage — production-style per-hop queue depth. For the host vantage
  // this is the receiver's leaf downlink (the bottleneck) queue.
  std::vector<std::int64_t> queue_watermarks;

  // Peak single-bin utilization — the burst's visibility at this vantage.
  [[nodiscard]] double peak_utilization() const;
  // Peak queue depth over the whole run at this hop.
  [[nodiscard]] std::int64_t peak_queue_packets() const;
};

struct FabricIncastExperimentResult : CyclicIncastResult {
  // Placement actually used (global host indices).
  std::vector<int> sender_hosts;
  int receiver_host{0};

  DctcpMode mode{DctcpMode::kSafe};

  // Host, leaf and spine vantage traces, in that tier order.
  std::vector<VantageTrace> vantages;

  // ECMP spread: distinct flows forwarded on each uplink of each leaf
  // (uplink order = ECMP member order), counting data at the sender's leaf
  // and ACKs at the receiver's. Computed from the flow list with
  // net::Switch::route_port, which is exactly the port the switch uses.
  struct LeafEcmpSpread {
    int global_leaf{0};
    std::vector<std::int64_t> flows_by_uplink;
  };
  std::vector<LeafEcmpSpread> leaf_ecmp;
};

// Runs one fabric experiment to completion (or max_sim_time). Throws a
// kConfig core::Error if the fabric cannot seat num_flows senders plus the
// receiver under the requested placement, and std::runtime_error if any
// switch blackholed a packet (a routing bug).
[[nodiscard]] FabricIncastExperimentResult run_fabric_incast_experiment(
    const FabricIncastExperimentConfig& config);

// The fat-tree that degenerates to the Section 4 dumbbell: 1 pod, 2 leaves
// (senders on one, receiver on the other), 1 spine, no aggs, leaf uplinks
// at the dumbbell's core rate. Copies every shared setting and the queue
// settings from `base` so mode classification is directly comparable.
[[nodiscard]] FabricIncastExperimentConfig dumbbell_equivalent_config(
    const IncastExperimentConfig& base);

}  // namespace incast::core

#endif  // INCAST_CORE_FABRIC_EXPERIMENT_H_
