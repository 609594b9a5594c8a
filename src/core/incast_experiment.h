// IncastExperiment: the Section 4 simulation harness.
//
// Builds the paper's dumbbell (N x 10 Gbps senders, 100 Gbps inter-ToR,
// one 10 Gbps receiver; RTT ~30 us; bottleneck queue 1333 packets with ECN
// marking at 65), runs a configurable number of cyclic incast bursts, and
// reports queue dynamics, burst completion times, and TCP-level outcomes.
// Following the paper, the first burst (dominated by slow start) is
// discarded and statistics cover the remaining bursts.
#ifndef INCAST_CORE_INCAST_EXPERIMENT_H_
#define INCAST_CORE_INCAST_EXPERIMENT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "net/topology.h"
#include "obs/flow_trace.h"
#include "sim/auditor.h"
#include "sim/event_category.h"
#include "tcp/tcp_config.h"
#include "telemetry/inflight_sampler.h"
#include "telemetry/queue_monitor.h"
#include "workload/cyclic_incast.h"

namespace incast::obs {
class Hub;
}  // namespace incast::obs

namespace incast::core {

// Faults on one link addressed by its LinkDirectory name, so a profile can
// target any link in any topology ("tor_s->tor_r" in the dumbbell,
// "p0.l1->s0" in a fat-tree, ...).
struct NamedLinkFault {
  std::string link;
  fault::LinkFaultConfig config{};
};

// Fault injection for the whole run. The forward/reverse fields apply to
// the dumbbell's inter-ToR link (data and ACK directions); `links` applies
// to arbitrary named links of the topology and works for any fabric. Flaps
// blackhole both core directions (a real link flap kills the full duplex
// pair). When nothing is enabled the fault layer is never constructed and
// the run is bit-for-bit identical to one without it.
struct FaultProfile {
  fault::LinkFaultConfig forward{};  // data direction (sender ToR -> receiver ToR)
  fault::LinkFaultConfig reverse{};  // ACK direction
  std::vector<NamedLinkFault> links{};
  std::vector<fault::FlapWindow> flaps{};

  [[nodiscard]] bool enabled() const noexcept {
    return forward.any_enabled() || reverse.any_enabled() || !flaps.empty() ||
           std::any_of(links.begin(), links.end(),
                       [](const NamedLinkFault& f) { return f.config.any_enabled(); });
  }
};

struct IncastExperimentConfig {
  int num_flows{100};
  sim::Time burst_duration{sim::Time::milliseconds(15)};
  int num_bursts{11};
  int discard_bursts{1};
  sim::Time inter_burst_gap{sim::Time::milliseconds(10)};
  // Completion gating keeps burst 0's slow-start losses from contaminating
  // the measured bursts (the paper discards burst 0 for the same reason);
  // kFixedPeriod is available to study pile-up dynamics.
  workload::BurstSchedule schedule{workload::BurstSchedule::kAfterCompletion};

  net::DumbbellConfig topology{};  // num_senders is overridden by num_flows
  tcp::TcpConfig tcp{};

  // Bottleneck queue time-series sampling period (Figures 5 and 6).
  sim::Time queue_sample_every{sim::Time::microseconds(10)};
  // Per-flow in-flight sampling (Figure 7); zero disables.
  sim::Time inflight_sample_every{sim::Time::zero()};

  // Hard wall for the simulation; generous enough for Mode 3 timeouts.
  sim::Time max_sim_time{sim::Time::seconds(30)};

  // Link faults on the inter-ToR link; disabled by default (strict no-op).
  FaultProfile faults{};

  // Borrowed observability hub. When set, the run attaches it to the
  // simulator before any component is built (senders and queues register
  // metrics and trace into it), labels the bottleneck link for tracing, and
  // snapshots the metrics registry at end of run. nullptr = unobserved run,
  // byte-identical to the pre-observability behavior.
  obs::Hub* hub{nullptr};

  // Run-hardening (see sim/auditor.h): kRelaxed (default) counts invariant
  // violations into the result without perturbing the run; kStrict aborts
  // on the first violation; kOff attaches no auditor. `audit` carries the
  // bounds, execution budgets and cancellation flag; its strict field is
  // overridden from audit_mode. A no-op under -DINCAST_AUDIT=OFF.
  sim::AuditMode audit_mode{sim::AuditMode::kRelaxed};
  sim::Auditor::Config audit{};

  // Tail autopsy (obs/flow_trace.h): attach a FlowTracer and decompose each
  // sampled flow's FCT into serialization/propagation/per-tier queueing/
  // stall classes. Sampling hashes (flow id, seed) so the decision is
  // deterministic and jobs-invariant; 1 traces every flow. Disabled runs
  // are byte-identical to pre-tracer behavior.
  bool flow_trace{false};
  std::uint64_t flow_trace_sample_every{1};

  std::uint64_t seed{1};
};

struct IncastExperimentResult {
  // Every burst, in order (index 0 .. num_bursts-1).
  std::vector<workload::CyclicIncastDriver::BurstRecord> bursts;

  // Bottleneck-queue time series over the whole run.
  std::vector<telemetry::QueueMonitor::Sample> queue_series;

  // Queue length vs time-since-burst-start, averaged over the measured
  // (non-discarded) bursts — the Figure 5/6 series. Entry i is the mean
  // queue depth at offset i * queue_sample_every.
  std::vector<double> mean_queue_by_offset;
  sim::Time queue_offset_step{};

  // Per-flow in-flight snapshots (Figure 7); empty unless enabled.
  std::vector<telemetry::InflightSampler::Snapshot> inflight;

  // Aggregates over measured bursts.
  double avg_bct_ms{0.0};
  double max_bct_ms{0.0};
  double avg_queue_packets{0.0};   // time-average during measured bursts
  double peak_queue_packets{0.0};  // max during measured bursts

  // Bottleneck queue and TCP counters, measured-window deltas.
  std::int64_t queue_drops{0};
  std::int64_t queue_ecn_marks{0};
  std::int64_t queue_enqueues{0};
  std::int64_t timeouts{0};
  std::int64_t fast_retransmits{0};
  std::int64_t retransmitted_packets{0};
  std::int64_t data_packets_sent{0};

  // Congestion-window census at the end of each measured burst (Section
  // 4.3: stragglers ramping up between bursts).
  double end_of_burst_cwnd_mean_mss{0.0};
  double end_of_burst_cwnd_max_mss{0.0};

  // Fault-layer counters, whole-run totals (all zero when faults are
  // disabled). Injected drops and congestion drops (queue_drops above) are
  // disjoint by construction: an injected drop never entered a queue's
  // accounting, so loss stays attributable.
  std::int64_t injected_drops{0};        // random + burst + flap drops on links
  std::int64_t injected_flap_drops{0};   // subset of injected_drops from flaps
  std::int64_t injected_corruptions{0};  // frames mangled in flight
  std::int64_t injected_duplicates{0};
  std::int64_t injected_reorders{0};
  std::int64_t corrupt_nic_drops{0};     // mangled frames discarded at host NICs

  // Injected-vs-congestion drop series per watermark window (from
  // QueueMonitor), for offline attribution.
  std::vector<std::int64_t> congestion_drops_by_window;
  std::vector<std::int64_t> injected_drops_by_window;

  // Total events the simulator dispatched — the determinism fingerprint
  // (two runs with the same seed must agree exactly) — and its breakdown by
  // event category (always collected; the self-profiler's cheap half).
  std::uint64_t events_processed{0};
  sim::EventCategoryCounts events_by_category{};
  // Event-kernel footprint: peak pending heap depth and callback-slab
  // high-water mark (how many events were ever scheduled concurrently).
  std::uint64_t peak_events_pending{0};
  std::uint64_t slab_high_water{0};

  // Total auditor invariant violations observed during the run (always 0
  // in strict mode — the first one aborts — and under -DINCAST_AUDIT=OFF
  // or audit_mode kOff).
  std::uint64_t audit_violations{0};

  // Tail autopsy (empty unless config.flow_trace): exact per-flow FCT
  // decompositions for completed sampled flows, the p50/p99/p999
  // attribution rows derived from them, and how many sampled flows the
  // sim-time wall cut mid-period.
  std::vector<obs::FlowBreakdown> flow_breakdowns;
  std::vector<obs::TailAttributionRow> fct_rows;
  std::uint64_t flow_trace_incomplete{0};

  // INT hop-stamp overflows across all ports (packets whose INT stack was
  // full at a stamping hop). Nonzero means telemetry-driven CCAs saw a
  // truncated path — surfaced as the net.int.hop_overflow metric and a
  // teardown warning instead of being dropped silently.
  std::int64_t int_hop_overflows{0};

  [[nodiscard]] double marked_fraction() const noexcept {
    return queue_enqueues > 0
               ? static_cast<double>(queue_ecn_marks) / static_cast<double>(queue_enqueues)
               : 0.0;
  }
  [[nodiscard]] double retransmit_fraction() const noexcept {
    return data_packets_sent > 0 ? static_cast<double>(retransmitted_packets) /
                                       static_cast<double>(data_packets_sent)
                                 : 0.0;
  }
};

// Runs one experiment to completion (or max_sim_time).
[[nodiscard]] IncastExperimentResult run_incast_experiment(const IncastExperimentConfig& config);

// Completion times (ms) of the bursts after the first `discard`, in burst
// order, with their mean and max (both 0 when no burst was measured).
struct BurstCompletion {
  std::vector<double> ms;
  double avg_ms{0.0};
  double max_ms{0.0};
};

template <typename Records>
BurstCompletion burst_completion(const Records& bursts, std::size_t discard) {
  BurstCompletion out;
  for (std::size_t b = discard; b < bursts.size(); ++b) {
    const double ms = bursts[b].completion_time().ms();
    out.ms.push_back(ms);
    out.avg_ms += ms;
    out.max_ms = std::max(out.max_ms, ms);
  }
  if (!out.ms.empty()) out.avg_ms /= static_cast<double>(out.ms.size());
  return out;
}

// The cumulative sender and bottleneck-queue counters a cyclic incast
// reports over its measured window (dumbbell and fabric alike): read once
// when the window opens and once at the end, the difference is the result.
struct IncastCounters {
  std::int64_t timeouts{0};
  std::int64_t fast_retransmits{0};
  std::int64_t retransmitted_packets{0};
  std::int64_t data_packets_sent{0};
  std::int64_t queue_drops{0};
  std::int64_t queue_ecn_marks{0};
  std::int64_t queue_enqueues{0};

  [[nodiscard]] static IncastCounters read(const std::vector<tcp::TcpSender*>& senders,
                                           const net::DropTailQueue& bottleneck);

  // Stores end - start into the result's same-named fields.
  template <typename Result>
  static void store_window(const IncastCounters& start, const IncastCounters& end,
                           Result& result) {
    result.timeouts = end.timeouts - start.timeouts;
    result.fast_retransmits = end.fast_retransmits - start.fast_retransmits;
    result.retransmitted_packets = end.retransmitted_packets - start.retransmitted_packets;
    result.data_packets_sent = end.data_packets_sent - start.data_packets_sent;
    result.queue_drops = end.queue_drops - start.queue_drops;
    result.queue_ecn_marks = end.queue_ecn_marks - start.queue_ecn_marks;
    result.queue_enqueues = end.queue_enqueues - start.queue_enqueues;
  }
};

}  // namespace incast::core

#endif  // INCAST_CORE_INCAST_EXPERIMENT_H_
