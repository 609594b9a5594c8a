// IncastScalingExperiment: the 1 -> 8000-sender incast-degree curve.
//
// Reproduces the htsim incast_scaling sweep on a 432-host three-tier
// fat-tree (12 pods x 6 leaves x 6 hosts, 6 aggs/pod, 36 spines): N senders
// each push one fixed-size transfer (default 270 kB) to a single receiver,
// all starting at t=0. The headline series is FCT overhead versus incast
// degree — the completion time of the last flow, normalized by the optimal
// FCT (one base RTT plus the time the receiver's downlink needs to
// serialize every byte of the incast, headers included):
//
//   overhead% = (FCT / optimal - 1) * 100
//
// A perfectly scheduled transport holds the curve near zero at every
// degree; timeout-driven recovery makes it explode past the point where the
// aggregate burst overwhelms the bottleneck buffer (paper Section 4).
//
// The experiment doubles as the repo's memory-budget probe. Each point
// reports a deterministic bytes-per-flow decomposition of the dominant
// state at peak:
//
//   * flow_state_bytes  — the TcpConnection arena (sender + receiver state)
//   * packet_pool_bytes — peak packets alive at one instant, queued and on
//                         the wire: the event loop's PacketPool high water
//                         x sizeof(net::Packet), plus its INT side table's
//                         (HPCC only); the windowed engine samples the
//                         domain pools' live bytes at barriers instead
//   * routing_bytes     — flat next-hop tables, all switches
//   * event_bytes       — the event-kernel slab and delay lines at their
//                         high-water marks; the windowed engine samples
//                         the domains' pending events at barriers instead
//
// These are sizeof-based counters, not RSS, so they are byte-identical at
// any --jobs value and feed the CSV; the process-wide peak RSS (which is
// not deterministic) rides along in SweepRunner::RunStats::peak_rss_bytes
// and the obs:: metrics snapshot instead.
//
// Every degree is an independent simulation on a SweepRunner; the CSV is
// byte-identical regardless of thread count.
#ifndef INCAST_CORE_SCALING_EXPERIMENT_H_
#define INCAST_CORE_SCALING_EXPERIMENT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/run_harness.h"
#include "fabric/fat_tree.h"
#include "obs/flow_trace.h"
#include "sim/domain.h"
#include "sim/sweep.h"
#include "tcp/tcp_config.h"

namespace incast::obs {
class Hub;
}  // namespace incast::obs

namespace incast::core {

struct ScalingPoint;

// The flow tracer hashes the *base* seed, so the same flow ids are sampled
// at every degree and attribution rows stay comparable along the ladder; at
// the 8000-sender end, flow_trace_sample_every keeps the breakdown
// footprint bounded.
struct ScalingConfig : AuditOptions, FlowTraceOptions, SweepOptions<ScalingPoint> {
  // Incast degrees to sweep, one simulation point each. The default ladder
  // spans the full htsim range; CI runs a {64, 512, 2000} subset.
  std::vector<int> degrees{1,   2,   4,    8,    16,   32,   64,  128,
                           256, 512, 1024, 2000, 4000, 8000};

  // The fabric. Defaults to the 432-host three-tier Clos the paper's
  // Section 3 fleet measurements come from. Senders are assigned round-robin
  // over every host except the receiver (slot 0 of the last leaf), so a
  // degree above num_hosts - 1 puts multiple flows on the same host — the
  // htsim convention for degrees past the host count.
  fabric::FatTreeConfig fabric{.num_pods = 12,
                               .leaves_per_pod = 6,
                               .hosts_per_leaf = 6,
                               .aggs_per_pod = 6,
                               .num_spines = 36};

  // Per-flow transfer size (htsim incast_scaling: 270000 bytes).
  std::int64_t bytes_per_flow{270'000};

  tcp::TcpConfig tcp{};

  // Safety stop for points where recovery stalls outright.
  sim::Time max_sim_time{sim::Time::seconds(120)};

  // Intra-run parallelism (conservative rack-domain decomposition, see
  // docs/PARALLELISM.md). 0 — the default — runs the legacy single-queue
  // engine, byte-identical to every release before the parallel engine
  // existed. N >= 1 runs the windowed domain engine with N domains; its
  // results are byte-identical at any N (domains=1 is the sequential
  // reference of that contract), but are a *different* deterministic
  // sequence than the legacy engine, whose equal-time tie-break is global
  // insertion order — an ordering no decomposition can reproduce.
  int domains{0};

  // Test hook: overrides the conservative lookahead derived from the
  // fabric (the minimum inter-domain propagation delay). Zero = derive.
  // Inflating it past the real link delay manufactures lookahead
  // violations, which is how the audit path is exercised.
  sim::Time lookahead_override{sim::Time::zero()};

  // Borrowed observability hub; it observes the first degree's run alone.
  obs::Hub* hub{nullptr};

  // Base seed; each point derives its own via derive_task_seed and uses it
  // as the fabric's ECMP seed, so every degree sees an independent (but
  // reproducible) path-collision pattern.
  std::uint64_t seed{1};
};

// One incast-degree simulation outcome.
struct ScalingPoint {
  int degree{0};

  double fct_ms{0.0};       // completion time of the last flow
  double optimal_ms{0.0};   // base RTT + bottleneck serialization of all bytes
  double overhead_pct{0.0}; // (fct / optimal - 1) * 100
  int completed_flows{0};   // < degree when max_sim_time cut the point short

  std::int64_t timeouts{0};
  std::int64_t retransmits{0};
  std::int64_t queue_drops{0};

  // Deterministic memory decomposition at peak (see file comment).
  std::uint64_t flow_state_bytes{0};
  std::uint64_t packet_pool_bytes{0};
  std::uint64_t routing_bytes{0};
  std::uint64_t event_bytes{0};
  std::uint64_t bytes_per_flow{0};  // sum of the four, / degree

  std::uint64_t events_processed{0};
  std::uint64_t audit_violations{0};

  // Tail autopsy (empty unless flow_trace): p50/p99/p999 attribution rows.
  // Every underlying breakdown was conservation-checked by the auditor
  // before aggregation (audit_violations counts any failures).
  std::vector<obs::TailAttributionRow> fct_rows;
  std::uint64_t traced_flows{0};          // completed sampled flows
  std::uint64_t flow_trace_incomplete{0}; // cut by max_sim_time

  // INT hop-stamp overflows across all ports of this point's fabric.
  std::int64_t int_hop_overflows{0};

  // Parallel-engine execution diagnostics (all zero/empty on the legacy
  // engine). `windows` and `window_hist` are N-invariant; the rest describe
  // the decomposition / thread schedule (`packets_bridged` is 0 at
  // domains=1 and grows with the cut) and are deliberately excluded from
  // the determinism contract — which is why none of these appear in
  // scaling_csv (they print as a stdout footer instead).
  std::uint64_t parallel_domains{0};
  std::uint64_t windows{0};                      // conservative windows executed
  std::uint64_t packets_bridged{0};              // cross-domain mailbox handoffs
  std::uint64_t barrier_stall_ns{0};             // summed worker wait (wall)
  std::vector<std::uint64_t> events_per_domain;  // dispatch counts, domain order
  // log2-bucketed events-per-window histogram (bucket 0 = empty window).
  std::array<std::uint64_t, sim::kWindowHistBuckets> window_hist{};
};

struct ScalingReport {
  std::vector<ScalingPoint> points;  // degree order
  sim::SweepRunner::RunStats sweep;
};

// Runs one degree standalone (used by the sweep and by tests that pin a
// single point). `hub` may be nullptr.
[[nodiscard]] ScalingPoint run_scaling_point(const ScalingConfig& config, int degree,
                                             std::uint64_t seed, obs::Hub* hub);

// Runs the whole degree ladder. Deterministic: the same config (seed
// included) produces an identical report at any `jobs`.
[[nodiscard]] ScalingReport run_scaling_experiment(const ScalingConfig& config);

// One CSV row per point, fixed column order and formatting — the artifact
// the determinism suite byte-compares across --jobs values.
[[nodiscard]] std::string scaling_csv(const ScalingReport& report);

// fct_breakdown.csv over the ladder: one row per (degree, percentile), in
// degree order, mode label "scaling". Byte-identical at any --jobs value;
// degrees without traced flows are simply omitted.
[[nodiscard]] std::string scaling_fct_csv(const ScalingReport& report);

}  // namespace incast::core

#endif  // INCAST_CORE_SCALING_EXPERIMENT_H_
