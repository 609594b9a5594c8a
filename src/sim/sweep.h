// SweepRunner: a thread pool for embarrassingly parallel simulation sweeps.
//
// Every Section 3/4 reproduction runs a grid of fully independent
// simulations — (host, snapshot) fleet traces, fault-sweep points, service
// catalogs. SweepRunner executes such a grid across hardware threads while
// preserving the repo's determinism contract:
//
//  * seeds are derived per task as splitmix64(base_seed, task_index), never
//    from thread identity or scheduling order (derive_task_seed below);
//  * results land at their task index, not completion order, so the output
//    vector is byte-identical regardless of thread count or interleaving;
//  * each task owns its Simulator and all objects reachable from it — the
//    single-writer-per-task invariant (docs/PARALLELISM.md) means workers
//    share nothing but the immutable config and their own result slot.
//
// Workers claim task indices in order from one shared atomic counter; the
// calling thread is worker 0, so jobs == 1 runs every task inline in index
// order with no thread spawned.
//
// Fault isolation (Policy): by default a task's exception aborts the sweep
// (fail_fast): no task starts after the failure is recorded, and the error
// is rethrown once the in-flight tasks finish. With fail_fast off, a failing
// task is retried up to max_attempts times with the same seed, then
// quarantined: its failure is recorded as a structured TaskFailure in
// RunStats::failures and every other task still runs to completion. A
// cooperative cancellation flag lets a signal handler stop the sweep
// between tasks; tasks that never ran are counted, not failed.
#ifndef INCAST_SIM_SWEEP_H_
#define INCAST_SIM_SWEEP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_category.h"

namespace incast::sim {

// One splitmix64 step (the same mixer Rng seeds itself with); exposed so
// seed-derivation code and tests agree on the exact constants.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

// Derives the seed for task `task_index` of a sweep with seed `base_seed`.
// Two splitmix64 rounds over (base_seed, task_index): distinct indices give
// distinct, well-mixed seeds (the first round makes even adjacent indices
// uncorrelated), and the result depends on nothing but the two inputs — a
// task's seed is identical whether the sweep runs on 1 thread or 16.
[[nodiscard]] std::uint64_t derive_task_seed(std::uint64_t base_seed,
                                             std::uint64_t task_index) noexcept;

// Why a quarantined task failed; indexes exit-code and journal categories.
enum class FailureCategory : std::uint8_t {
  kException = 0,  // any std::exception outside the taxonomy below
  kAudit,          // sim::AuditFailure (strict invariant violation)
  kBudget,         // sim::BudgetExceeded (event or wall-clock budget)
  kCancelled,      // sim::RunCancelled (cooperative cancellation)
};

[[nodiscard]] const char* to_string(FailureCategory category) noexcept;

// One quarantined sweep point: everything needed to reproduce it alone.
struct TaskFailure {
  std::size_t index{0};
  std::uint64_t seed{0};  // from Policy::seed_of; 0 when no mapper is set
  FailureCategory category{FailureCategory::kException};
  std::string message;
  int attempts{1};  // how many times the task was tried before quarantine
};

// Fault isolation for a sweep. The default reproduces the historical
// behavior exactly: first failure aborts the run.
struct SweepPolicy {
  // true: the first task failure is recorded, stops every worker from
  // starting another task, and is rethrown from run() once the in-flight
  // tasks finish. false: failing tasks are quarantined into
  // RunStats::failures and the rest of the sweep completes.
  bool fail_fast{true};

  // With fail_fast off, how many times to try a task before quarantining
  // it (same seed each time — retries only help transient failures such
  // as wall-budget noise; deterministic failures fail identically).
  int max_attempts{1};

  // Observes each recorded failure as it happens (journal append, log line).
  // Called under an internal mutex: keep it cheap and do not call back
  // into the runner.
  std::function<void(const TaskFailure&)> on_failure;

  // Cooperative cancellation: when set and *cancel becomes true, workers
  // stop picking up new tasks (in-flight tasks finish or throw
  // RunCancelled via their own auditor). Must outlive the run.
  const std::atomic<bool>* cancel{nullptr};
};

class SweepRunner {
 public:
  // The fault isolation plus how failure records name their seed.
  struct Policy : SweepPolicy {
    // Maps a task index to its derived seed, purely for failure records
    // (the runner never seeds tasks itself).
    std::function<std::uint64_t(std::size_t)> seed_of;
  };

  // Filled in by the runner for every task; tasks report their simulation
  // event count through the reference they receive.
  struct TaskStats {
    double wall_ms{0.0};          // wall-clock execution time of the task
    std::uint64_t events{0};      // simulator events the task dispatched
    int worker{-1};               // worker thread that ran it (0 = caller)
    // Per-category dispatch counts (copy the task Simulator's
    // events_by_category() here to surface the event-loop profile).
    EventCategoryCounts events_by_category{};
    // Event-kernel memory footprint of the task's Simulator: peak pending
    // heap depth and callback-slab high-water mark (sim/event_queue.h).
    std::uint64_t peak_events_pending{0};
    std::uint64_t slab_high_water{0};
    // Times the task was started (1 for a clean run; > 1 after retries).
    int attempts{0};
  };

  struct RunStats {
    int jobs{1};
    double wall_ms{0.0};          // whole-sweep wall time
    std::uint64_t total_events{0};
    // Sum of per-task category counts across the sweep.
    EventCategoryCounts events_by_category{};
    // Max over tasks: the deepest any task's event kernel ran. Sizes
    // reserve_events() hints for future runs of the same grid.
    std::uint64_t peak_events_pending{0};
    std::uint64_t slab_high_water{0};
    std::vector<TaskStats> tasks; // indexed by task index

    // Failed tasks, sorted by index (under fail_fast, the first failure and
    // any in-flight task that failed with it), total retry attempts beyond
    // the first try, and tasks never started because cancellation or a
    // fail_fast failure was observed first.
    std::vector<TaskFailure> failures;
    std::uint64_t retries{0};
    std::uint64_t tasks_not_run{0};

    // Peak resident set size of the whole process at the end of the sweep
    // (getrusage ru_maxrss; 0 on platforms without it). Informational only:
    // RSS depends on allocator and OS behavior, so it never feeds the
    // deterministic CSV outputs — use it for memory budgeting and CI gates.
    std::uint64_t peak_rss_bytes{0};

    // Aggregate simulation throughput of the sweep.
    [[nodiscard]] double events_per_second() const noexcept {
      return wall_ms > 0.0 ? static_cast<double>(total_events) / (wall_ms / 1e3) : 0.0;
    }

    // True when task `index` was quarantined (binary search of failures).
    [[nodiscard]] bool failed(std::size_t index) const noexcept;
  };

  // jobs <= 0 selects std::thread::hardware_concurrency().
  explicit SweepRunner(int jobs = 0) noexcept;

  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  // Installs the fault-isolation policy for subsequent run() calls.
  void set_policy(Policy policy) { policy_ = std::move(policy); }
  [[nodiscard]] const Policy& policy() const noexcept { return policy_; }

  // Runs fn(index, stats) for every index in [0, n) and returns the results
  // ordered by task index. fn must be callable concurrently from multiple
  // threads for distinct indices and must not touch shared mutable state
  // (give each task its own Simulator/Rng seeded via derive_task_seed).
  // Under fail_fast (the default) the first exception thrown by any task is
  // rethrown here after the in-flight tasks finish, with last_run() already
  // complete; otherwise failing tasks leave a default-constructed Result at
  // their index and a TaskFailure in last_run().failures — callers must
  // consult failed(index) before using a result.
  template <typename Result, typename Fn>
  std::vector<Result> run(std::size_t n, Fn&& fn) {
    std::vector<Result> results(n);
    execute(n, [&](std::size_t index, TaskStats& stats) {
      results[index] = fn(index, stats);
    });
    return results;
  }

  // Stats for the most recent run(); valid until the next run() call.
  [[nodiscard]] const RunStats& last_run() const noexcept { return stats_; }

 private:
  // Type-erased core: runs the claim loop on every worker, times each
  // task, and records stats_.
  void execute(std::size_t n, const std::function<void(std::size_t, TaskStats&)>& task);

  int jobs_;
  Policy policy_;
  RunStats stats_;
};

}  // namespace incast::sim

#endif  // INCAST_SIM_SWEEP_H_
