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
// journaled points and records fresh ones for every journaled subcommand,
// and the one place that decides which seed a point's failure record
// carries and which point the hub observes.
//
// AuditOptions, FlowTraceOptions and SweepOptions are the only declaration
// of those settings: every experiment config derives from the ones it takes.
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

// Run hardening (see sim/auditor.h): kRelaxed (the default) counts
// invariant violations into the result without perturbing the run; kStrict
// aborts on the first violation; kOff attaches no auditor. `audit` carries
// the bounds, execution budgets and cancellation flag; its strict field is
// overridden from audit_mode. A no-op under -DINCAST_AUDIT=OFF.
struct AuditOptions {
  sim::AuditMode audit_mode{sim::AuditMode::kRelaxed};
  sim::Auditor::Config audit{};
};

// Tail autopsy (obs/flow_trace.h): attach a FlowTracer and decompose each
// sampled flow's FCT into serialization/propagation/per-tier queueing/
// stall classes. 1 in flow_trace_sample_every flows is sampled, hashed by
// (flow id, the experiment's base seed), so the decision is deterministic
// and jobs-invariant; 1 traces every flow. Disabled runs are byte-identical
// to pre-tracer behavior.
struct FlowTraceOptions {
  bool flow_trace{false};
  std::uint64_t flow_trace_sample_every{1};
};

// Journal checkpoint/resume hooks, the same shape in every sweep config:
// resume(index, out) fills `out` and returns true when a prior run already
// completed the point; on_result(index, seed, result) records a fresh one
// (from the worker thread that ran it).
template <typename Result>
using ResumeHook = std::function<bool(std::size_t index, Result& out)>;
template <typename Result>
using ResultHook =
    std::function<void(std::size_t index, std::uint64_t seed, const Result& result)>;

// How a sweep of Result points executes. Nothing here changes a result:
// seeds derive from the point index, never from scheduling.
template <typename Result>
struct SweepOptions {
  // Worker threads (sim::SweepRunner): 1 = inline, <= 0 = all hardware
  // threads. Results are ordered by point index at any value.
  int jobs{1};
  sim::SweepPolicy sweep{};  // fault isolation: fail fast, or quarantine and retry
  ResumeHook<Result> resume{};
  ResultHook<Result> on_result{};
};

class RunHarness {
 public:
  // `hub` is borrowed (nullptr = unobserved run). The flow tracer samples by
  // (flow id, flow_trace_seed).
  RunHarness(sim::Simulator& sim, obs::Hub* hub, const AuditOptions& audit,
             const FlowTraceOptions& flow_trace = {}, std::uint64_t flow_trace_seed = 0);

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

// Runs `n` independent points on a SweepRunner as `options` says. Point i
// replays the result options.resume holds for it, leaving its TaskStats
// figures at zero (this process simulated nothing for it); otherwise
// run(i, seed_of(i), hub) simulates it and options.on_result records it.
// seed_of(i) is also the seed a failure record of point i carries. Point 0
// alone receives `hub`, every other point nullptr: worker threads must not
// share it, and a fixed observed point keeps trace and metrics output
// byte-identical at any jobs. Results come back in index order.
template <typename Result, typename SeedOf, typename Run>
std::vector<Result> resumable_sweep(const SweepOptions<Result>& options, std::size_t n,
                                    SeedOf seed_of, obs::Hub* hub, Run run,
                                    sim::SweepRunner::RunStats& sweep) {
  sim::SweepRunner runner{options.jobs};
  runner.set_policy({options.sweep, seed_of});
  std::vector<Result> results = runner.run<Result>(
      n, [&](std::size_t index, sim::SweepRunner::TaskStats& stats) {
        Result result;
        if (options.resume && options.resume(index, result)) return result;
        const std::uint64_t seed = seed_of(index);
        result = run(index, seed, index == 0 ? hub : nullptr);
        record_task_stats(result, stats);
        if (options.on_result) options.on_result(index, seed, result);
        return result;
      });
  sweep = runner.last_run();
  return results;
}

}  // namespace incast::core

#endif  // INCAST_CORE_RUN_HARNESS_H_
