// core::RunHarness — the plumbing every experiment run shares.
//
// An experiment owns its network, its workload and its counters; the
// harness owns everything around them. Constructed on a fresh simulator
// before any component is built (senders, ports and queues cache the hub,
// auditor and tracer pointers in their constructors), it:
//
//   * attaches the borrowed obs::Hub, an optional sim::Auditor and an
//     optional obs::FlowTracer to the simulator;
//   * builds the run's ExperimentObserver and hooks the event kernel and
//     the auditor into it (a no-op without an enabled hub);
//   * at teardown() runs the checks every run owes its results: no switch
//     blackholed a packet, every injected byte is accounted for, every
//     sampled flow's FCT decomposes exactly, plus the INT-overflow warning
//     and the violation count.
//
// Whether an auditor runs is decided here alone: kOff or a build with
// -DINCAST_AUDIT=OFF attaches none, so no experiment needs the compile-time
// switch.
//
// resumable_sweep() is the sweep-level half: the one loop that replays
// journaled points and records fresh ones for every journaled subcommand.
#ifndef INCAST_CORE_RUN_HARNESS_H_
#define INCAST_CORE_RUN_HARNESS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment_obs.h"
#include "obs/flow_trace.h"
#include "sim/auditor.h"
#include "sim/sweep.h"

namespace incast::net {
class LinkDirectory;
class Switch;
}  // namespace incast::net

namespace incast::core {

// The auditor configuration a run under `mode` uses (`base` with strict
// set from the mode), or nullopt when no auditor runs: mode kOff, or the
// audit layer compiled out.
[[nodiscard]] std::optional<sim::Auditor::Config> auditor_config(
    sim::AuditMode mode, const sim::Auditor::Config& base);

// Sums the INT hop-stamp overflows over every link of `topology` and warns
// on stderr when any occurred: never fatal (ACK echo on deep paths can
// legitimately exceed the stack, see Port::int_hop_overflows), never silent.
std::int64_t check_int_overflows(const net::LinkDirectory& topology);

class RunHarness {
 public:
  struct Options {
    obs::Hub* hub{nullptr};  // borrowed; nullptr = unobserved run
    sim::AuditMode audit_mode{sim::AuditMode::kOff};
    sim::Auditor::Config audit{};
    // Tail autopsy: sample 1 in flow_trace_sample_every flows, hashed by
    // (flow id, flow_trace_seed).
    bool flow_trace{false};
    std::uint64_t flow_trace_seed{0};
    std::uint64_t flow_trace_sample_every{1};
  };

  // What teardown() established about the finished run.
  struct Outcome {
    std::vector<obs::FlowBreakdown> flow_breakdowns;  // completed sampled flows
    std::vector<obs::TailAttributionRow> fct_rows;    // p50/p99/p999
    std::uint64_t flow_trace_incomplete{0};           // cut by the deadline
    std::int64_t int_hop_overflows{0};
    std::uint64_t audit_violations{0};

    // Moves every field into the result's same-named one. A result with no
    // room for per-flow breakdowns (a sweep point) keeps their count.
    template <typename Result>
    void store(Result& result) && {
      if constexpr (requires { result.flow_breakdowns; }) {
        result.flow_breakdowns = std::move(flow_breakdowns);
      } else {
        result.traced_flows = flow_breakdowns.size();
      }
      result.fct_rows = std::move(fct_rows);
      result.flow_trace_incomplete = flow_trace_incomplete;
      result.int_hop_overflows = int_hop_overflows;
      result.audit_violations = audit_violations;
    }
  };

  RunHarness(sim::Simulator& sim, const Options& options);

  RunHarness(const RunHarness&) = delete;
  RunHarness& operator=(const RunHarness&) = delete;

  [[nodiscard]] ExperimentObserver& observer() noexcept { return observer_; }

  // Names the run's bottleneck link in the trace and exposes its egress
  // queue's counters. Returns the trace label the bottleneck's QueueMonitor
  // takes: the link name, or "" on an unobserved run.
  std::string observe_bottleneck(const net::LinkDirectory& topology, const std::string& link);

  // Call once, after the simulation stopped and while the topology is
  // alive. Throws when a switch holds unrouted packets (a topology bug);
  // under a strict auditor, on the first violated invariant.
  [[nodiscard]] Outcome teardown(const net::LinkDirectory& topology,
                                 const std::vector<net::Switch*>& switches);

 private:
  sim::Simulator& sim_;
  std::optional<sim::Auditor> auditor_;
  std::optional<obs::FlowTracer> flow_tracer_;
  ExperimentObserver observer_;
};

// Journal checkpoint/resume hooks, the same shape in every sweep config:
// resume(index, out) fills `out` and returns true when a prior run already
// completed the point; on_result(index, seed, result) records a fresh one.
template <typename Result>
using ResumeHook = std::function<bool(std::size_t index, Result& out)>;
template <typename Result>
using ResultHook =
    std::function<void(std::size_t index, std::uint64_t seed, const Result& result)>;

// The event-kernel figures a finished result reports to its sweep task.
template <typename Result>
void record_task_stats(const Result& result, sim::SweepRunner::TaskStats& stats) {
  stats.events = result.events_processed;
  if constexpr (requires { result.events_by_category; }) {
    stats.events_by_category = result.events_by_category;
    stats.peak_events_pending = result.peak_events_pending;
    stats.slab_high_water = result.slab_high_water;
  }
}

// Runs `n` independent points on a SweepRunner under `policy`, whose
// seed_of must be set. Point i replays the result `resume` holds for it;
// otherwise run(i, seed_of(i)) simulates it and `on_result` records it.
// Either hook may be empty. Results come back in index order at any `jobs`.
template <typename Result, typename Run>
std::vector<Result> resumable_sweep(int jobs, sim::SweepRunner::Policy policy, std::size_t n,
                                    const ResumeHook<Result>& resume,
                                    const ResultHook<Result>& on_result, Run run,
                                    sim::SweepRunner::RunStats& sweep) {
  const std::function<std::uint64_t(std::size_t)> seed_of = policy.seed_of;
  sim::SweepRunner runner{jobs};
  runner.set_policy(std::move(policy));
  std::vector<Result> results = runner.run<Result>(
      n, [&](std::size_t index, sim::SweepRunner::TaskStats& stats) {
        Result result;
        const bool replayed = resume && resume(index, result);
        const std::uint64_t seed = seed_of(index);
        if (!replayed) result = run(index, seed);
        record_task_stats(result, stats);
        if (!replayed && on_result) on_result(index, seed, result);
        return result;
      });
  sweep = runner.last_run();
  return results;
}

}  // namespace incast::core

#endif  // INCAST_CORE_RUN_HARNESS_H_
