// FleetExperiment: the Section 3 measurement-study harness.
//
// The paper instruments 20 hosts in each of five services and collects
// 2-second Millisampler traces nine times a day (Figure 2/4) and every ten
// minutes for 18 hours (Figure 3). Here each (host, snapshot) pair is an
// independent rack simulation: a production-like ToR (shallower per-queue
// cap, 6.7%-of-capacity ECN threshold, shared buffer with rack-level
// contention) receiving that service's synthetic burst traffic, with a
// Millisampler on the measured host and a watermark monitor on its ToR
// queue. The burst detector then reduces each trace to per-burst records.
#ifndef INCAST_CORE_FLEET_EXPERIMENT_H_
#define INCAST_CORE_FLEET_EXPERIMENT_H_

#include <cstdint>
#include <vector>

#include "analysis/burst_detector.h"
#include "core/run_harness.h"
#include "sim/event_category.h"
#include "sim/sweep.h"
#include "tcp/tcp_config.h"
#include "workload/rack_contention.h"
#include "workload/service_profile.h"

namespace incast::obs {
class Hub;
}  // namespace incast::obs

namespace incast::core {

struct HostTraceResult;

// Every (host, snapshot) cell is an independent simulation seeded from
// (base_seed, service, cell index), so run_all() parallelizes freely and is
// byte-identical at any jobs value.
struct FleetConfig : AuditOptions, SweepOptions<HostTraceResult> {
  workload::ServiceProfile profile;
  int num_hosts{6};
  int num_snapshots{3};
  sim::Time trace_duration{sim::Time::seconds(1)};

  // Production-like ToR: ECN marks at 6.7% of the per-queue capacity (the
  // paper's production threshold); the effective capacity at runtime is
  // lower whenever the shared pool is contended.
  std::int64_t queue_capacity_packets{2000};
  double ecn_threshold_fraction{0.067};
  // Shared pool sized at ~one queue's worth of MTU frames: under rack
  // contention the Dynamic Threshold squeezes the measured queue well
  // below its static cap, which is where the rare catastrophic losses of
  // Figure 4c come from.
  std::int64_t shared_pool_bytes{2000 * 1500};

  // How the "simultaneous burst events to other hosts on the same rack"
  // (Section 3.4) are modelled:
  //  * kNone     — the measured host has the rack to itself;
  //  * kModeled  — a Markov on/off process pins a fraction of the shared
  //    pool (cheap; the default);
  //  * kNeighbor — a second receiver on the same ToR runs the same service
  //    for real, its bursts competing for the shared pool packet by packet.
  enum class ContentionMode { kNone, kModeled, kNeighbor };
  ContentionMode contention_mode{ContentionMode::kModeled};
  workload::RackContention::Config contention{};

  tcp::TcpConfig tcp{};
  sim::Bandwidth nic_rate{sim::Bandwidth::gigabits_per_second(10)};

  // "video" switches operating regime every this many snapshots.
  int regime_block_snapshots{3};

  std::uint64_t base_seed{42};

  analysis::BurstDetectorConfig detector{};

  // Borrowed observability hub; run_all() hands it to cell 0, (host 0,
  // snapshot 0), alone.
  obs::Hub* hub{nullptr};
};

struct HostTraceResult {
  int host{0};
  int snapshot{0};
  bool alt_regime{false};
  double avg_utilization{0.0};
  analysis::TraceBurstSummary summary;
  std::int64_t queue_drops{0};
  std::int64_t generated_bursts{0};  // ground truth from the generator
  // Simulator events this trace dispatched — the determinism fingerprint
  // (identical for a given (host, snapshot, seed) at any --jobs value) —
  // plus the per-category breakdown.
  std::uint64_t events_processed{0};
  sim::EventCategoryCounts events_by_category{};
  // Event-kernel footprint (sim/event_queue.h).
  std::uint64_t peak_events_pending{0};
  std::uint64_t slab_high_water{0};
  // Auditor invariant violations observed during this trace (0 when the
  // audit layer is off or compiled out).
  std::uint64_t audit_violations{0};

  // Per-1ms ToR queue watermarks (always retained; Figure 4a coarsens them
  // to production-style windows).
  std::vector<std::int64_t> queue_watermarks;
  // Raw Millisampler bins, retained only when FleetExperiment::keep_bins()
  // is set (Figure 1 needs them; the CDF figures do not).
  std::vector<telemetry::Millisampler::Bin> bins;
};

class FleetExperiment {
 public:
  explicit FleetExperiment(const FleetConfig& config) : config_{config} {}

  // Retain per-bin series in results (memory-heavy; off by default).
  void set_keep_bins(bool keep) noexcept { keep_bins_ = keep; }

  // Runs one (host, snapshot) trace in an isolated simulation, observed by
  // `hub` when set.
  [[nodiscard]] HostTraceResult run_host_trace(int host, int snapshot,
                                               obs::Hub* hub = nullptr) const;

  // Runs every (host, snapshot) pair across config().jobs worker threads
  // (sim::SweepRunner). Results are ordered snapshot-major — index
  // snapshot * num_hosts + host — regardless of completion order.
  [[nodiscard]] std::vector<HostTraceResult> run_all() const;

  // Wall-time/events stats of the most recent run_all() sweep.
  [[nodiscard]] const sim::SweepRunner::RunStats& last_sweep() const noexcept {
    return last_sweep_;
  }

  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] std::uint64_t trace_seed(int host, int snapshot) const noexcept;

  FleetConfig config_;
  bool keep_bins_{false};
  // Timing telemetry from run_all(); mutable because timing a const sweep
  // does not change the experiment's observable results.
  mutable sim::SweepRunner::RunStats last_sweep_{};
};

}  // namespace incast::core

#endif  // INCAST_CORE_FLEET_EXPERIMENT_H_
