#include "sim/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/auditor.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace incast::sim {

namespace {

// Process-wide peak RSS in bytes (0 where unavailable). Linux reports
// ru_maxrss in kilobytes, macOS in bytes.
[[nodiscard]] std::uint64_t peak_rss_bytes_now() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

}  // namespace

const char* to_string(FailureCategory category) noexcept {
  switch (category) {
    case FailureCategory::kException: return "exception";
    case FailureCategory::kAudit: return "audit";
    case FailureCategory::kBudget: return "budget";
    case FailureCategory::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool SweepRunner::RunStats::failed(std::size_t index) const noexcept {
  const auto it = std::lower_bound(
      failures.begin(), failures.end(), index,
      [](const TaskFailure& f, std::size_t i) { return f.index < i; });
  return it != failures.end() && it->index == index;
}

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_task_seed(std::uint64_t base_seed, std::uint64_t task_index) noexcept {
  // First round folds the index into the stream position, second round mixes
  // the result; both go through the full splitmix64 finalizer so adjacent
  // indices (the common case in a grid sweep) share no low-bit structure.
  std::uint64_t state = base_seed;
  state ^= splitmix64_next(task_index);
  return splitmix64_next(state);
}

SweepRunner::SweepRunner(int jobs) noexcept : jobs_{jobs} {
  if (jobs_ <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw > 0 ? static_cast<int>(hw) : 1;
  }
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Maps a task's exception onto the failure taxonomy, extracting the message.
FailureCategory classify_failure(const std::exception_ptr& ep, std::string& message) {
  try {
    std::rethrow_exception(ep);
  } catch (const RunCancelled& e) {
    message = e.what();
    return FailureCategory::kCancelled;
  } catch (const AuditFailure& e) {
    message = e.what();
    return FailureCategory::kAudit;
  } catch (const BudgetExceeded& e) {
    message = e.what();
    return FailureCategory::kBudget;
  } catch (const std::exception& e) {
    message = e.what();
    return FailureCategory::kException;
  } catch (...) {
    message = "unknown exception";
    return FailureCategory::kException;
  }
}

}  // namespace

void SweepRunner::execute(std::size_t n,
                          const std::function<void(std::size_t, TaskStats&)>& task) {
  stats_ = RunStats{};
  stats_.jobs = jobs_;
  stats_.tasks.resize(n);
  if (n == 0) return;

  const auto sweep_start = Clock::now();
  const int max_attempts = policy_.fail_fast ? 1 : std::max(policy_.max_attempts, 1);

  // Workers claim task indices in order from one shared counter. Tasks are
  // whole simulations (milliseconds to seconds each), so one atomic
  // increment per task is vanishingly rare next to task work, and a worker
  // that finishes early simply claims the next index.
  std::atomic<std::size_t> next_index{0};
  // Set under fail_fast by the first recorded failure: no task starts
  // after it.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> retries{0};
  // Serializes the failure list, the on_failure callback and first_error.
  std::mutex failures_mu;
  std::vector<TaskFailure> failures;
  std::exception_ptr first_error;

  auto cancelled = [this] {
    return policy_.cancel != nullptr &&
           policy_.cancel->load(std::memory_order_relaxed);
  };

  // Runs one task to success or to its last attempt. A failure on the last
  // attempt is recorded; under fail_fast it also stops all claiming, and
  // the first one is rethrown after the join.
  auto run_task = [&](std::size_t index, int worker) {
    TaskStats& st = stats_.tasks[index];
    for (int attempt = 1;; ++attempt) {
      // Each attempt starts from clean stats — a partial failed attempt
      // must not leak event counts into the successful one.
      st = TaskStats{};
      st.worker = worker;
      st.attempts = attempt;
      const auto t0 = Clock::now();
      try {
        task(index, st);
        st.wall_ms = ms_between(t0, Clock::now());
        return;
      } catch (...) {
        st.wall_ms = ms_between(t0, Clock::now());
        std::string message;
        const FailureCategory category =
            classify_failure(std::current_exception(), message);
        if (category != FailureCategory::kCancelled && attempt < max_attempts &&
            !cancelled()) {
          retries.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        TaskFailure failure;
        failure.index = index;
        failure.seed = policy_.seed_of ? policy_.seed_of(index) : 0;
        failure.category = category;
        failure.message = std::move(message);
        failure.attempts = attempt;
        std::lock_guard<std::mutex> lock(failures_mu);
        if (policy_.fail_fast) {
          stop.store(true);
          if (!first_error) first_error = std::current_exception();
        }
        if (policy_.on_failure) policy_.on_failure(failure);
        failures.push_back(std::move(failure));
        return;
      }
    }
  };

  // A claimed index the worker does not run stays at attempts == 0 and is
  // counted as not run after the join.
  auto worker_loop = [&](int worker) {
    for (;;) {
      const std::size_t index = next_index.fetch_add(1);
      if (index >= n || cancelled() || stop.load()) return;
      run_task(index, worker);
    }
  };

  // The calling thread is worker 0; jobs == 1 spawns no thread at all.
  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(jobs_), n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) threads.emplace_back(worker_loop, w);
  worker_loop(0);
  for (auto& t : threads) t.join();

  // Failures sorted by index so the output is deterministic regardless of
  // which worker recorded what first.
  std::sort(failures.begin(), failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) { return a.index < b.index; });
  stats_.failures = std::move(failures);
  stats_.retries = retries.load(std::memory_order_relaxed);

  stats_.wall_ms = ms_between(sweep_start, Clock::now());
  stats_.peak_rss_bytes = peak_rss_bytes_now();
  for (const TaskStats& st : stats_.tasks) {
    if (st.attempts == 0) ++stats_.tasks_not_run;
    stats_.total_events += st.events;
    for (std::size_t c = 0; c < kNumEventCategories; ++c) {
      stats_.events_by_category[c] += st.events_by_category[c];
    }
    stats_.peak_events_pending =
        std::max(stats_.peak_events_pending, st.peak_events_pending);
    stats_.slab_high_water = std::max(stats_.slab_high_water, st.slab_high_water);
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace incast::sim
