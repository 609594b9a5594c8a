// CollateralExperiment: the "collateral damage" scenario family — one
// long-lived victim flow sharing the fabric with a large incast.
//
// Reproduces the htsim NDP collateral-damage experiment on the paper's
// dumbbell: receiver 0 is the incast sink (64-500 flows, cyclic bursts),
// receiver 1 the sink of a single persistent victim flow from a host on the
// same sender-side ToR. The victim never touches the incast's bottleneck
// downlink — any throughput it loses is collateral from the shared hops.
//
// Four queue modes tell four different stories at the same operating point:
//
//  * kDropTail  — drop-tail + ECN (the paper's baseline). The victim loses
//    only what burst-onset overshoot steals at the shared core uplink.
//  * kPfc      — PFC lossless Ethernet + DCQCN. Nothing is dropped, but
//    the congestion tree grows backwards: the incast fills the receiver
//    ToR's VIQ, pauses the core link, fills the sender ToR's VIQs, and
//    pauses every host — victim included. Head-of-line blocking makes the
//    victim's loss rate zero and its throughput worst of all four.
//  * kTrim     — NDP-style packet trimming. Overflow cuts payloads instead
//    of dropping packets; receivers NACK trimmed headers and senders
//    retransmit in one RTT. The victim sees brief trims at burst onset and
//    recovers immediately.
//  * kCredit   — the rdt:: receiver-driven credit transport for the incast.
//    Credit pacing never overfills the fabric, so the victim runs at line
//    rate; this is the "what if we fixed incast at the source" bound.
//
// Every point is an independent simulation; the (mode x degree) grid runs
// on a SweepRunner, so results are byte-identical at any --jobs value.
#ifndef INCAST_CORE_COLLATERAL_EXPERIMENT_H_
#define INCAST_CORE_COLLATERAL_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_harness.h"
#include "net/pfc.h"
#include "net/topology.h"
#include "obs/flow_trace.h"
#include "sim/sweep.h"
#include "tcp/tcp_config.h"

namespace incast::obs {
class Hub;
}  // namespace incast::obs

namespace incast::core {

enum class QueueMode { kDropTail, kPfc, kTrim, kCredit };

[[nodiscard]] const char* to_string(QueueMode mode) noexcept;
// Parses "droptail" | "pfc" | "trim" | "credit"; false on anything else.
[[nodiscard]] bool parse_queue_mode(const std::string& name, QueueMode& out) noexcept;

struct CollateralPoint;

// The flow tracer hashes the *base* seed, so every grid point samples the
// same flow ids and breakdowns stay comparable across modes and degrees.
struct CollateralConfig : AuditOptions, FlowTraceOptions, SweepOptions<CollateralPoint> {
  // The sweep grid: every (mode, degree) pair is one simulation point,
  // mode-major (all degrees of modes[0] first).
  std::vector<QueueMode> modes{QueueMode::kDropTail, QueueMode::kPfc, QueueMode::kTrim,
                               QueueMode::kCredit};
  std::vector<int> degrees{64};  // incast fan-in (paper range: 64-500)

  // Incast workload (mirrors the Section 4 cyclic incast).
  int num_bursts{4};
  sim::Time burst_duration{sim::Time::milliseconds(15)};
  sim::Time inter_burst_gap{sim::Time::milliseconds(10)};

  // Topology template. num_senders/num_receivers are overridden per point
  // (degree + 1 senders, 2 receivers); switch_queue is reshaped per mode.
  // The inter-ToR link defaults to 20 Gbps — tighter than the incast
  // dumbbell's 100 Gbps — so the hop the victim shares with the incast
  // behaves like the colliding core paths of the htsim fat-tree scenario:
  // burst-onset overshoot transits a contended shared link instead of
  // vanishing into 10x headroom.
  net::DumbbellConfig topology{.core_link = sim::Bandwidth::gigabits_per_second(20)};

  // Drop-tail queue shape, used by kDropTail and kCredit (and as the ECN
  // threshold source for every mode).
  int queue_capacity_packets{1333};
  int ecn_threshold_packets{65};

  // Optional receiver-ToR dynamically shared buffer (Dynamic Threshold),
  // applied to every mode but kPfc (lossless headroom is dedicated, not
  // pooled). Off by default: a pool small enough to pressure the incast
  // caps its queue below the ECN threshold and turns the baseline into an
  // RTO storm, which muddies the mode comparison. Enable it to study
  // Section 3.4 rack-level buffer contention on top of the scenario.
  std::int64_t shared_buffer_bytes{0};
  double shared_buffer_alpha{1.0};

  // kPfc: the VIQ thresholds, plus an effectively-unbounded egress queue so
  // PFC backpressure — not tail drop — is the binding constraint.
  net::LosslessInputQueue::Config pfc{};
  int pfc_queue_capacity_packets{100'000};

  // kTrim: data-ring capacity of the trimming queue. Shallower than the
  // drop-tail buffer — trimming is what makes small queues viable
  // — but with enough ECN headroom (mark at 65, trim at 400) that DCTCP
  // sees marks before payloads start getting cut. True NDP runs ~8-packet
  // queues, but only because its receiver pulls pace every packet; a
  // window sender with that little headroom trims constantly.
  int trim_queue_capacity_packets{400};

  // Victim socket-buffer bound: caps the victim's cwnd so the long-lived
  // flow can't grow its window without bound on an idle path (which would
  // eventually trip the auditor's cwnd sanity bound). ~128 KB is several
  // base-path BDPs — never the limiting factor at 10 Gbps / ~30 us, but a
  // finite in-flight ceiling. 0 = uncapped.
  std::int64_t victim_cwnd_cap_bytes{128 * 1024};

  // Congestion control: `cc` drives kDropTail/kTrim/kCredit's victim;
  // kPfc uses `pfc_cc` (DCQCN — the production lossless pairing). The
  // victim always runs the same CCA as the incast it shares links with.
  tcp::TcpConfig tcp{};
  tcp::CcAlgorithm pfc_cc{tcp::CcAlgorithm::kDcqcn};

  sim::Time max_sim_time{sim::Time::seconds(30)};

  // Borrowed observability hub; it observes point 0 (the first mode at the
  // first degree) alone.
  obs::Hub* hub{nullptr};

  std::uint64_t seed{1};
};

// One (mode, degree) simulation outcome.
struct CollateralPoint {
  QueueMode mode{QueueMode::kDropTail};
  int degree{0};

  // The victim flow (the headline number: htsim ordering is
  // trim ~ credit > droptail > pfc).
  double victim_goodput_gbps{0.0};
  std::int64_t victim_delivered_bytes{0};
  double victim_paused_ms{0.0};  // NIC time paused by PFC (HoL blocking)
  std::int64_t victim_retransmits{0};
  std::int64_t victim_timeouts{0};
  std::int64_t victim_nacks{0};  // trim NACKs the victim receiver sent

  // The incast's own completion behaviour (FCT of the measured bursts).
  double incast_avg_bct_ms{0.0};
  double incast_max_bct_ms{0.0};
  std::int64_t incast_timeouts{0};

  // Fabric-wide mechanism counters, summed over every switch port / VIQ.
  std::int64_t queue_drops{0};
  std::int64_t trimmed_packets{0};
  std::int64_t trimmed_bytes{0};
  std::int64_t pfc_pause_frames{0};
  std::int64_t pfc_resume_frames{0};
  std::int64_t pfc_overflow_drops{0};
  std::int64_t incast_nacks{0};

  std::uint64_t events_processed{0};
  std::uint64_t audit_violations{0};

  // Tail autopsy (empty unless flow_trace): p50/p99/p999 attribution rows.
  // Every underlying breakdown was conservation-checked by the auditor
  // before aggregation (audit_violations counts any failures).
  std::vector<obs::TailAttributionRow> fct_rows;
  std::uint64_t traced_flows{0};          // completed sampled flows
  std::uint64_t flow_trace_incomplete{0}; // cut by max_sim_time

  // INT hop-stamp overflows across all ports of this point's topology.
  std::int64_t int_hop_overflows{0};
};

struct CollateralReport {
  std::vector<CollateralPoint> points;  // mode-major grid order
  sim::SweepRunner::RunStats sweep;
};

// Runs one point standalone (used by the sweep and by tests that pin a
// single scenario). `hub` may be nullptr.
[[nodiscard]] CollateralPoint run_collateral_point(const CollateralConfig& config,
                                                   QueueMode mode, int degree,
                                                   std::uint64_t seed, obs::Hub* hub);

// Runs the whole (mode x degree) grid. Deterministic: the same config
// (seed included) produces an identical report at any `jobs`.
[[nodiscard]] CollateralReport run_collateral_experiment(const CollateralConfig& config);

// One CSV row per point, fixed column order and formatting — the artifact
// the determinism suite byte-compares across --jobs values.
[[nodiscard]] std::string collateral_csv(const CollateralReport& report);

// fct_breakdown.csv over the grid: one row per (point, percentile), in
// point order. Byte-identical at any --jobs value; empty rows for points
// without traced flows are simply omitted.
[[nodiscard]] std::string collateral_fct_csv(const CollateralReport& report);

}  // namespace incast::core

#endif  // INCAST_CORE_COLLATERAL_EXPERIMENT_H_
