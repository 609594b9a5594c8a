// Tests for SweepRunner fault isolation: quarantine, retries, cancellation,
// and the determinism of healthy results when one sweep point fails —
// exercised at jobs 1, 4, and 16 (suite name contains "Sweep" so the TSan
// CI leg picks it up).
#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/chaos.h"
#include "core/fleet_experiment.h"
#include "sim/auditor.h"
#include "sim/sweep.h"
#include "workload/service_profile.h"

namespace incast::sim {
namespace {

using namespace incast::sim::literals;

SweepRunner::Policy quarantine_policy(int max_attempts = 1) {
  SweepRunner::Policy p;
  p.fail_fast = false;
  p.max_attempts = max_attempts;
  p.seed_of = [](std::size_t i) { return derive_task_seed(42, i); };
  return p;
}

TEST(SweepQuarantine, FailingTaskIsQuarantinedOthersComplete) {
  for (const int jobs : {1, 4, 16}) {
    SweepRunner runner{jobs};
    runner.set_policy(quarantine_policy());
    const auto results = runner.run<int>(
        20, [](std::size_t index, SweepRunner::TaskStats&) -> int {
          if (index == 7) throw std::runtime_error{"boom"};
          return static_cast<int>(index) * 10;
        });
    const auto& stats = runner.last_run();
    ASSERT_EQ(stats.failures.size(), 1u) << "jobs=" << jobs;
    EXPECT_EQ(stats.failures[0].index, 7u);
    EXPECT_EQ(stats.failures[0].category, FailureCategory::kException);
    EXPECT_EQ(stats.failures[0].message, "boom");
    EXPECT_EQ(stats.failures[0].seed, derive_task_seed(42, 7));
    EXPECT_TRUE(stats.failed(7));
    for (std::size_t i = 0; i < 20; ++i) {
      if (i == 7) continue;
      EXPECT_FALSE(stats.failed(i));
      EXPECT_EQ(results[i], static_cast<int>(i) * 10) << "jobs=" << jobs;
    }
  }
}

TEST(SweepQuarantine, FailFastStillRethrows) {
  SweepRunner runner{4};
  // Default policy: historical fail-fast behavior.
  EXPECT_THROW(runner.run<int>(8,
                               [](std::size_t index, SweepRunner::TaskStats&) -> int {
                                 if (index == 3) throw std::runtime_error{"fatal"};
                                 return 0;
                               }),
               std::runtime_error);
}

TEST(SweepQuarantine, FailFastStopsClaimingOnceTheFailureIsRecorded) {
  constexpr std::size_t kTasks = 32;
  for (const int jobs : {1, 4}) {
    std::atomic<int> ran{0};
    std::atomic<int> in_flight{0};
    std::atomic<bool> recorded{false};
    std::atomic<int> started_after_record{0};
    SweepRunner runner{jobs};
    SweepRunner::Policy policy;  // fail_fast, the default
    policy.on_failure = [&recorded](const TaskFailure&) { recorded.store(true); };
    runner.set_policy(policy);
    try {
      runner.run<int>(kTasks, [&](std::size_t index, SweepRunner::TaskStats&) -> int {
        if (recorded.load()) started_after_record.fetch_add(1);
        ran.fetch_add(1);
        if (index == 0) {
          // Fail once every other worker holds a task, so exactly those are
          // in flight when the failure is recorded.
          while (in_flight.load() < jobs - 1) std::this_thread::yield();
          throw std::runtime_error{"task 0 failed"};
        }
        in_flight.fetch_add(1);
        while (!recorded.load()) std::this_thread::yield();
        return 0;
      });
      ADD_FAILURE() << "no exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 0 failed");
    }
    const auto& stats = runner.last_run();
    EXPECT_EQ(started_after_record.load(), 0) << "jobs=" << jobs;
    EXPECT_EQ(ran.load(), jobs);
    EXPECT_EQ(static_cast<std::size_t>(ran.load()) + stats.tasks_not_run, kTasks);
    // last_run() is complete although run() threw.
    ASSERT_EQ(stats.tasks.size(), kTasks);
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].index, 0u);
    EXPECT_EQ(stats.failures[0].message, "task 0 failed");
    EXPECT_EQ(stats.tasks[0].attempts, 1);
    EXPECT_GT(stats.wall_ms, 0.0);
  }
}

TEST(SweepQuarantine, RetriesTransientFailuresBeforeQuarantine) {
  // One task fails on its first attempt only; with max_attempts=2 the sweep
  // ends clean but records the retry.
  for (const int jobs : {1, 4}) {
    std::atomic<int> tries{0};
    SweepRunner runner{jobs};
    runner.set_policy(quarantine_policy(2));
    const auto results = runner.run<int>(
        8, [&tries](std::size_t index, SweepRunner::TaskStats&) -> int {
          if (index == 2 && tries.fetch_add(1) == 0) {
            throw std::runtime_error{"transient"};
          }
          return 1;
        });
    const auto& stats = runner.last_run();
    EXPECT_TRUE(stats.failures.empty()) << "jobs=" << jobs;
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.tasks[2].attempts, 2);
    EXPECT_EQ(results[2], 1);
  }
}

TEST(SweepQuarantine, DeterministicFailureExhaustsAttempts) {
  SweepRunner runner{4};
  runner.set_policy(quarantine_policy(3));
  runner.run<int>(8, [](std::size_t index, SweepRunner::TaskStats&) -> int {
    if (index == 5) throw std::runtime_error{"always"};
    return 0;
  });
  const auto& stats = runner.last_run();
  ASSERT_EQ(stats.failures.size(), 1u);
  EXPECT_EQ(stats.failures[0].attempts, 3);
  EXPECT_EQ(stats.retries, 2u);
}

TEST(SweepQuarantine, ClassifiesFailureTaxonomy) {
  SweepRunner runner{1};
  runner.set_policy(quarantine_policy());
  runner.run<int>(4, [](std::size_t index, SweepRunner::TaskStats&) -> int {
    switch (index) {
      case 0: throw AuditFailure{"conservation", "ledger imbalance"};
      case 1: throw BudgetExceeded{"too many events"};
      case 2: throw RunCancelled{};
      default: throw 42;  // not even a std::exception
    }
  });
  const auto& stats = runner.last_run();
  ASSERT_EQ(stats.failures.size(), 4u);
  EXPECT_EQ(stats.failures[0].category, FailureCategory::kAudit);
  EXPECT_EQ(stats.failures[1].category, FailureCategory::kBudget);
  EXPECT_EQ(stats.failures[2].category, FailureCategory::kCancelled);
  EXPECT_EQ(stats.failures[3].category, FailureCategory::kException);
  EXPECT_EQ(stats.failures[3].message, "unknown exception");
}

TEST(SweepQuarantine, AWrappedFailureKeepsItsCauseAndLeadsWithItsContext) {
  SweepRunner runner{1};
  runner.set_policy(quarantine_policy());
  runner.run<int>(2, [](std::size_t index, SweepRunner::TaskStats&) -> int {
    try {
      if (index == 0) throw BudgetExceeded{"too many events"};
      throw AuditFailure{"conservation", "ledger imbalance"};
    } catch (...) {
      std::throw_with_nested(std::runtime_error{"config #" + std::to_string(index)});
    }
  });
  const auto& stats = runner.last_run();
  ASSERT_EQ(stats.failures.size(), 2u);
  EXPECT_EQ(stats.failures[0].category, FailureCategory::kBudget);
  EXPECT_EQ(stats.failures[0].message, "config #0: budget exceeded: too many events");
  EXPECT_EQ(stats.failures[1].category, FailureCategory::kAudit);
  EXPECT_EQ(stats.failures[1].message, "config #1: audit[conservation]: ledger imbalance");
}

// A chaos run that fails says which generated config it was: every failure
// record leads with the config's description, ahead of the cause.
TEST(SweepQuarantine, ChaosFailuresNameTheirConfig) {
  core::ChaosConfig cfg;
  cfg.num_configs = 4;
  cfg.jobs = 1;
  cfg.max_events_per_run = 10;  // every generated config runs out of budget
  const core::ChaosReport report = core::run_chaos(cfg);
  ASSERT_EQ(report.sweep.failures.size(), 4u);
  for (const TaskFailure& f : report.sweep.failures) {
    SCOPED_TRACE(f.message);
    EXPECT_EQ(f.category, FailureCategory::kBudget);
    const bool burst = f.message.starts_with("burst cc=") ||
                       f.message.starts_with("faulty-burst cc=");
    EXPECT_TRUE(burst || f.message.starts_with("fleet service="));
    if (burst) {
      EXPECT_NE(f.message.find(" qmode="), std::string::npos);
    }
    EXPECT_NE(f.message.find(": budget exceeded: task dispatched more than 10 events"),
              std::string::npos);
  }
}

TEST(SweepQuarantine, CancelledTasksAreNeverRetried) {
  SweepRunner runner{1};
  runner.set_policy(quarantine_policy(5));
  runner.run<int>(2, [](std::size_t index, SweepRunner::TaskStats&) -> int {
    if (index == 0) throw RunCancelled{};
    return 0;
  });
  const auto& stats = runner.last_run();
  ASSERT_EQ(stats.failures.size(), 1u);
  EXPECT_EQ(stats.failures[0].attempts, 1);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(SweepQuarantine, CancellationFlagStopsPickingUpWork) {
  for (const int jobs : {1, 4}) {
    std::atomic<bool> cancel{false};
    SweepRunner runner{jobs};
    auto policy = quarantine_policy();
    policy.cancel = &cancel;
    runner.set_policy(policy);
    std::atomic<int> ran{0};
    runner.run<int>(64, [&](std::size_t index, SweepRunner::TaskStats&) -> int {
      ran.fetch_add(1);
      if (index == 0) {
        cancel.store(true);
      } else {
        // Hold the worker until cancellation is visible: otherwise all 64
        // trivial tasks can drain before the flag set by task 0 propagates,
        // and the not-run assertion below becomes a race. At most `jobs`
        // tasks are in flight when the flag flips, so the rest stay unrun.
        while (!cancel.load()) std::this_thread::yield();
      }
      return 0;
    });
    const auto& stats = runner.last_run();
    EXPECT_GT(stats.tasks_not_run, 0u) << "jobs=" << jobs;
    EXPECT_LT(ran.load(), 64) << "jobs=" << jobs;
    EXPECT_EQ(static_cast<std::size_t>(ran.load()) + stats.tasks_not_run, 64u)
        << "jobs=" << jobs;
  }
}

TEST(SweepQuarantine, OnFailureCallbackSeesEachQuarantine) {
  std::vector<std::size_t> seen;
  SweepRunner runner{4};
  auto policy = quarantine_policy();
  policy.on_failure = [&seen](const TaskFailure& f) { seen.push_back(f.index); };
  runner.set_policy(policy);
  runner.run<int>(16, [](std::size_t index, SweepRunner::TaskStats&) -> int {
    if (index % 5 == 0) throw std::runtime_error{"x"};
    return 0;
  });
  EXPECT_EQ(seen.size(), 4u);  // 0, 5, 10, 15 (order unspecified)
}

// --- End-to-end: one poisoned fleet cell, healthy results identical at any
// --- job count (the acceptance bar for fault isolation).

core::FleetConfig small_fleet(int jobs) {
  core::FleetConfig cfg;
  cfg.profile = workload::service_by_name("messaging");
  cfg.profile.max_flows = 40;
  cfg.profile.body_median_flows = 20.0;
  cfg.num_hosts = 3;
  cfg.num_snapshots = 2;
  cfg.trace_duration = 40_ms;
  cfg.jobs = jobs;
  return cfg;
}

TEST(SweepQuarantine, FleetPoisonedCellDoesNotPerturbHealthyCells) {
  // Reference run: no failures, sequential.
  const auto reference = core::FleetExperiment{small_fleet(1)}.run_all();

  for (const int jobs : {1, 4, 16}) {
    auto cfg = small_fleet(jobs);
    // A throwing on_result hook fails its task just as a throwing
    // simulation would.
    cfg.on_result = [](std::size_t index, std::uint64_t, const core::HostTraceResult&) {
      if (index == 4) throw std::runtime_error{"poisoned cell 4"};
    };
    cfg.sweep.fail_fast = false;  // quarantine instead of aborting the sweep
    core::FleetExperiment exp{cfg};

    const auto results = exp.run_all();
    const auto& sweep = exp.last_sweep();
    ASSERT_EQ(sweep.failures.size(), 1u) << "jobs=" << jobs;
    EXPECT_EQ(sweep.failures[0].index, 4u);
    EXPECT_EQ(sweep.failures[0].category, FailureCategory::kException);
    EXPECT_NE(sweep.failures[0].seed, 0u);

    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i == 4) continue;
      EXPECT_EQ(results[i].events_processed, reference[i].events_processed)
          << "jobs=" << jobs << " cell=" << i;
      EXPECT_EQ(results[i].queue_drops, reference[i].queue_drops);
      EXPECT_EQ(results[i].summary.bursts.size(), reference[i].summary.bursts.size());
    }
  }
}

}  // namespace
}  // namespace incast::sim
