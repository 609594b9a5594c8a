// IncastExperiment: the Section 4 simulation harness.
//
// Builds the paper's dumbbell (N x 10 Gbps senders, 100 Gbps inter-ToR,
// one 10 Gbps receiver; RTT ~30 us; bottleneck queue 1333 packets with ECN
// marking at 65), runs a configurable number of cyclic incast bursts, and
// reports queue dynamics, burst completion times, and TCP-level outcomes.
// Following the paper, the first burst (dominated by slow start) is
// discarded and statistics cover the remaining bursts.
//
// The run itself is run_cyclic_incast, the one body every cyclic incast
// shares (the fat-tree experiment in core/fabric_experiment.h too); the
// dumbbell plugs into it as an IncastTopology.
#ifndef INCAST_CORE_INCAST_EXPERIMENT_H_
#define INCAST_CORE_INCAST_EXPERIMENT_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/run_harness.h"
#include "fault/fault_injector.h"
#include "net/topology.h"
#include "obs/flow_trace.h"
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

// The settings every cyclic incast shares, whatever its topology: the
// workload, TCP, measurement, hardening and tracing knobs. Each experiment's
// config derives from it and adds only its topology's own settings. The
// flow tracer samples by the run's seed.
struct CyclicIncastSettings : AuditOptions, FlowTraceOptions {
  int num_flows{100};
  sim::Time burst_duration{sim::Time::milliseconds(15)};
  int num_bursts{11};
  int discard_bursts{1};
  sim::Time inter_burst_gap{sim::Time::milliseconds(10)};
  // Completion gating keeps burst 0's slow-start losses from contaminating
  // the measured bursts (the paper discards burst 0 for the same reason);
  // kFixedPeriod is available to study pile-up dynamics.
  workload::BurstSchedule schedule{workload::BurstSchedule::kAfterCompletion};

  tcp::TcpConfig tcp{};

  // Bottleneck queue time-series sampling period (Figures 5 and 6).
  sim::Time queue_sample_every{sim::Time::microseconds(10)};

  // Hard wall for the simulation; generous enough for Mode 3 timeouts.
  sim::Time max_sim_time{sim::Time::seconds(30)};

  // Borrowed observability hub. When set, the run attaches it to the
  // simulator before any component is built (senders and queues register
  // metrics and trace into it), labels the bottleneck link for tracing, and
  // snapshots the metrics registry at end of run. nullptr = unobserved run,
  // byte-identical to the pre-observability behavior.
  obs::Hub* hub{nullptr};

  std::uint64_t seed{1};
};

// What every cyclic incast reports, whatever its topology.
struct CyclicIncastResult {
  // Every burst, in order (index 0 .. num_bursts-1).
  std::vector<workload::CyclicIncastDriver::BurstRecord> bursts;

  // Bottleneck-queue time series over the whole run.
  std::vector<telemetry::QueueMonitor::Sample> queue_series;

  // Aggregates over measured (non-discarded) bursts.
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

  // Random + burst + flap drops on links, whole-run total (zero when no
  // fault is configured). Injected drops and congestion drops (queue_drops
  // above) are disjoint by construction: an injected drop never entered a
  // queue's accounting, so loss stays attributable.
  std::int64_t injected_drops{0};

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
};

struct IncastExperimentConfig : CyclicIncastSettings {
  net::DumbbellConfig topology{};  // num_senders is overridden by num_flows

  // Per-flow in-flight sampling (Figure 7); zero disables.
  sim::Time inflight_sample_every{sim::Time::zero()};

  // Link faults on the inter-ToR link; disabled by default (strict no-op).
  FaultProfile faults{};
};

struct IncastExperimentResult : CyclicIncastResult {
  // Queue length vs time-since-burst-start, averaged over the measured
  // (non-discarded) bursts — the Figure 5/6 series. Entry i is the mean
  // queue depth at offset i * queue_sample_every.
  std::vector<double> mean_queue_by_offset;
  sim::Time queue_offset_step{};

  // Per-flow in-flight snapshots (Figure 7); empty unless enabled.
  std::vector<telemetry::InflightSampler::Snapshot> inflight;

  // Congestion-window census at the end of each measured burst (Section
  // 4.3: stragglers ramping up between bursts).
  double end_of_burst_cwnd_mean_mss{0.0};
  double end_of_burst_cwnd_max_mss{0.0};

  // Fault-layer counters beyond injected_drops, whole-run totals (all zero
  // when faults are disabled).
  std::int64_t injected_flap_drops{0};   // subset of injected_drops from flaps
  std::int64_t injected_corruptions{0};  // frames mangled in flight
  std::int64_t injected_duplicates{0};
  std::int64_t injected_reorders{0};
  std::int64_t corrupt_nic_drops{0};     // mangled frames discarded at host NICs

  // Injected-vs-congestion drop series per watermark window (from
  // QueueMonitor), for offline attribution.
  std::vector<std::int64_t> congestion_drops_by_window;
  std::vector<std::int64_t> injected_drops_by_window;
};

// Runs one experiment to completion (or max_sim_time).
[[nodiscard]] IncastExperimentResult run_incast_experiment(const IncastExperimentConfig& config);

// Completion times (ms) of the bursts after the first `discard`, in burst
// order, with their mean and max (both 0 when no burst was measured) and
// the longest as a time.
struct BurstCompletion {
  std::vector<double> ms;
  double avg_ms{0.0};
  double max_ms{0.0};
  sim::Time longest{};
};

template <typename Records>
BurstCompletion burst_completion(const Records& bursts, std::size_t discard) {
  BurstCompletion out;
  for (std::size_t b = discard; b < bursts.size(); ++b) {
    const sim::Time t = bursts[b].completion_time();
    const double ms = t.ms();
    out.ms.push_back(ms);
    out.avg_ms += ms;
    out.max_ms = std::max(out.max_ms, ms);
    out.longest = std::max(out.longest, t);
  }
  if (!out.ms.empty()) out.avg_ms /= static_cast<double>(out.ms.size());
  return out;
}

// A topology's part in a cyclic incast. run_cyclic_incast owns the run and
// calls each hook at one fixed point of it, in the order declared here, so
// every topology builds, starts and samples in the same order: equal-time
// events fire in insertion order, and that order is part of every output.
class IncastTopology {
 public:
  // What the run needs of the network the topology built.
  struct Network {
    const net::LinkDirectory* links{nullptr};
    std::vector<net::Switch*> switches;  // for the teardown checks
    workload::CyclicIncastDriver::Endpoints endpoints;
    std::string bottleneck_link;  // LinkDirectory name of the bottleneck hop
    net::DropTailQueue* bottleneck{nullptr};
  };

  IncastTopology() = default;
  IncastTopology(const IncastTopology&) = delete;
  IncastTopology& operator=(const IncastTopology&) = delete;
  virtual ~IncastTopology() = default;

  [[nodiscard]] virtual Network network() = 0;
  // Whether any link fault is configured. Only then does the run build a
  // fault layer, so a fault-free run is a strict no-op (no hooks installed,
  // no RNG stream created, identical event sequence).
  [[nodiscard]] virtual bool has_faults() const = 0;
  virtual void install_faults(fault::FaultInjector& /*injector*/) {}
  // Starts the samplers on hops other than the bottleneck; they start
  // before the bottleneck monitor.
  virtual void start_vantages() {}
  // Starts the per-flow samplers, after the bottleneck monitor.
  virtual void start_flow_samplers(const std::vector<tcp::TcpSender*>& /*senders*/) {}
  // Called as each measured burst completes.
  virtual void on_measured_burst(const std::vector<tcp::TcpSender*>& /*senders*/) {}
  // A measured burst's in-burst queue samples run from its start through
  // its completion, and only while less than this long after its start.
  // `longest` is the longest measured burst.
  [[nodiscard]] virtual sim::Time in_burst_horizon(sim::Time /*longest*/) const {
    return sim::Time::infinity();
  }
  // Fills the topology's own result fields, after the shared ones.
  virtual void finish(const telemetry::QueueMonitor& bottleneck,
                      const fault::FaultInjector* injector) = 0;
};

using IncastTopologyFactory =
    std::function<std::unique_ptr<IncastTopology>(sim::Simulator& sim)>;

// The one cyclic-incast run body, for every topology. On a fresh simulator
// with the run harness attached, `make_topology` builds the network; the
// body drives the bursts, samples the bottleneck queue, frames the
// measured-window counters and fills every CyclicIncastResult field of
// `result`, calling the topology's hooks along the way.
void run_cyclic_incast(const CyclicIncastSettings& settings,
                       const IncastTopologyFactory& make_topology, CyclicIncastResult& result);

}  // namespace incast::core

#endif  // INCAST_CORE_INCAST_EXPERIMENT_H_
