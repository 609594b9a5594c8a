#include "core/resilience_experiment.h"

#include <algorithm>
#include <utility>

#include "core/run_harness.h"

namespace incast::core {

const char* to_string(DctcpMode m) noexcept {
  switch (m) {
    case DctcpMode::kSafe: return "safe";
    case DctcpMode::kDegenerate: return "degenerate";
    case DctcpMode::kCollapse: return "collapse";
  }
  return "unknown";
}

DctcpMode classify_mode(std::int64_t timeouts, double marked_fraction) noexcept {
  // Collapse is defined by its recovery mechanism, not its cause: once RTOs
  // carry recovery, completion time is governed by min_rto regardless of
  // whether the loss was congestion or injected.
  if (timeouts > 0) return DctcpMode::kCollapse;
  // The degenerate point's signature is a standing queue above the marking
  // threshold: essentially every packet is CE-marked.
  if (marked_fraction > 0.8) return DctcpMode::kDegenerate;
  return DctcpMode::kSafe;
}

DctcpMode classify_mode(const IncastExperimentResult& result) {
  return classify_mode(result.timeouts, result.marked_fraction());
}

namespace {

double relative_goodput(const IncastExperimentResult& baseline,
                        const IncastExperimentResult& point) {
  if (baseline.avg_bct_ms <= 0.0 || point.avg_bct_ms <= 0.0) return 0.0;
  return baseline.avg_bct_ms / point.avg_bct_ms;
}

double recovery_after_flap_ms(const IncastExperimentResult& result, sim::Time flap_end) {
  // The burst in flight when the link came back: its remaining completion
  // time is the recovery cost of the flap.
  for (const auto& b : result.bursts) {
    if (b.started <= flap_end && b.completed >= flap_end) {
      return (b.completed - flap_end).ms();
    }
  }
  return 0.0;
}

}  // namespace

// A point's simulation figures live in its incast result.
void record_task_stats(const ResiliencePoint& point, sim::SweepRunner::TaskStats& stats) {
  record_task_stats(point.result, stats);
}

ResilienceReport run_resilience_experiment(const ResilienceConfig& config) {
  ResilienceReport report;

  IncastExperimentConfig baseline_cfg = config.base;
  baseline_cfg.faults = FaultProfile{};
  report.baseline = run_incast_experiment(baseline_cfg);
  report.baseline_mode = classify_mode(report.baseline);

  // Drop-rate points first, then flaps — the historical report order. Each
  // point deliberately reuses the base seed: the sweep isolates the effect
  // of the fault profile, not seed variance.
  sim::SweepRunner::Policy policy = config.sweep;
  if (!policy.seed_of) {
    policy.seed_of = [seed = config.base.seed](std::size_t) { return seed; };
  }
  const std::size_t num_drop_rates = config.drop_rates.size();
  report.points = resumable_sweep<ResiliencePoint>(
      config.jobs, std::move(policy), num_drop_rates + config.flap_durations.size(),
      config.resume, config.on_result,
      [&](std::size_t index, std::uint64_t) {
        ResiliencePoint point;
        IncastExperimentConfig cfg = config.base;
        cfg.faults = FaultProfile{};
        // Only the baseline is observed: sweep points run concurrently and
        // may not share the (single-threaded) hub; nulling it also keeps
        // the report identical for every jobs value.
        cfg.hub = nullptr;
        if (index < num_drop_rates) {
          point.drop_rate = config.drop_rates[index];
          cfg.faults.forward = config.fault_template;
          cfg.faults.forward.drop_rate = point.drop_rate;
        } else {
          point.flap_duration = config.flap_durations[index - num_drop_rates];
          if (point.flap_duration > sim::Time::zero()) {
            cfg.faults.flaps.push_back(fault::FlapWindow{config.flap_at, point.flap_duration});
          }
        }

        point.result = run_incast_experiment(cfg);
        point.goodput_rel = relative_goodput(report.baseline, point.result);
        if (point.flap_duration > sim::Time::zero()) {
          point.recovery_after_flap_ms = recovery_after_flap_ms(
              point.result, config.flap_at + point.flap_duration);
        }
        point.mode = classify_mode(point.result);
        return point;
      },
      report.sweep);

  return report;
}

}  // namespace incast::core
