// Tests for sim::SweepRunner and the sweep determinism contract: any
// --jobs value must produce byte-identical experiment output.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/fleet_experiment.h"
#include "core/resilience_experiment.h"
#include "sim/sweep.h"
#include "telemetry/trace_io.h"
#include "workload/service_profile.h"

namespace incast {
namespace {

using namespace incast::sim::literals;

// ---- seed derivation -------------------------------------------------------

TEST(SweepSeedDerivation, DistinctTasksNeverShareASeed) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    seeds.clear();
    for (std::uint64_t index = 0; index < 10'000; ++index) {
      seeds.insert(sim::derive_task_seed(base, index));
    }
    EXPECT_EQ(seeds.size(), 10'000u) << "collision under base " << base;
  }
}

TEST(SweepSeedDerivation, DependsOnlyOnBaseAndIndex) {
  EXPECT_EQ(sim::derive_task_seed(42, 7), sim::derive_task_seed(42, 7));
  EXPECT_NE(sim::derive_task_seed(42, 7), sim::derive_task_seed(43, 7));
  EXPECT_NE(sim::derive_task_seed(42, 7), sim::derive_task_seed(42, 8));
}

TEST(SweepSeedDerivation, AdjacentIndicesAreWellMixed) {
  // Adjacent grid cells must not share bit structure: over 64 consecutive
  // indices every output bit should flip at least once.
  std::uint64_t ored_diff = 0;
  std::uint64_t prev = sim::derive_task_seed(1, 0);
  for (std::uint64_t index = 1; index < 64; ++index) {
    const std::uint64_t next = sim::derive_task_seed(1, index);
    ored_diff |= prev ^ next;
    prev = next;
  }
  EXPECT_EQ(ored_diff, ~0ULL);
}

// ---- SweepRunner mechanics -------------------------------------------------

TEST(SweepRunner, ResultsLandAtTheirTaskIndex) {
  sim::SweepRunner runner{4};
  const auto results = runner.run<int>(
      100, [](std::size_t i, sim::SweepRunner::TaskStats&) {
        return static_cast<int>(i) * 3;
      });
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 3);
  }
}

TEST(SweepRunner, RunsEveryTaskExactlyOnce) {
  std::atomic<int> calls{0};
  sim::SweepRunner runner{8};
  (void)runner.run<int>(257, [&](std::size_t, sim::SweepRunner::TaskStats&) {
    return calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 257);
}

TEST(SweepRunner, DefaultsToHardwareConcurrency) {
  const unsigned hw = std::thread::hardware_concurrency();
  sim::SweepRunner runner{0};
  EXPECT_EQ(runner.jobs(), hw > 0 ? static_cast<int>(hw) : 1);
  EXPECT_EQ(sim::SweepRunner{-3}.jobs(), runner.jobs());
  EXPECT_EQ(sim::SweepRunner{5}.jobs(), 5);
}

TEST(SweepRunner, CollectsPerTaskStats) {
  sim::SweepRunner runner{2};
  (void)runner.run<int>(6, [](std::size_t i, sim::SweepRunner::TaskStats& stats) {
    stats.events = i + 1;
    return 0;
  });
  const auto& stats = runner.last_run();
  EXPECT_EQ(stats.jobs, 2);
  ASSERT_EQ(stats.tasks.size(), 6u);
  EXPECT_EQ(stats.total_events, 1u + 2 + 3 + 4 + 5 + 6);
  for (const auto& task : stats.tasks) {
    EXPECT_GE(task.worker, 0);
    EXPECT_LT(task.worker, 2);
    EXPECT_GE(task.wall_ms, 0.0);
  }
  EXPECT_GT(stats.wall_ms, 0.0);
}

TEST(SweepRunner, EmptySweepIsANoOp) {
  sim::SweepRunner runner{4};
  const auto results = runner.run<int>(
      0, [](std::size_t, sim::SweepRunner::TaskStats&) { return 1; });
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(runner.last_run().total_events, 0u);
}

TEST(SweepRunner, PropagatesTaskExceptions) {
  sim::SweepRunner runner{4};
  EXPECT_THROW(
      (void)runner.run<int>(16,
                            [](std::size_t i, sim::SweepRunner::TaskStats&) {
                              if (i == 11) throw std::runtime_error{"task 11 failed"};
                              return 0;
                            }),
      std::runtime_error);
}

TEST(SweepRunner, MoreJobsThanTasksIsFine) {
  sim::SweepRunner runner{16};
  const auto results = runner.run<int>(
      3, [](std::size_t i, sim::SweepRunner::TaskStats&) { return static_cast<int>(i); });
  EXPECT_EQ(results, (std::vector<int>{0, 1, 2}));
}

// ---- determinism across thread counts --------------------------------------

core::FleetConfig small_fleet_config() {
  core::FleetConfig cfg;
  cfg.profile = workload::service_by_name("messaging");
  cfg.profile.max_flows = 40;
  cfg.profile.body_median_flows = 20.0;
  cfg.profile.bursts_per_second = 80.0;
  cfg.num_hosts = 3;
  cfg.num_snapshots = 2;
  cfg.trace_duration = 100_ms;
  cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.tcp.rtt.min_rto = 200_ms;
  return cfg;
}

// Serializes every trace of a fleet sweep to the CSV interchange format —
// the exact bytes `incast_sim fleet --export-csv` would write — plus the
// scalar outcomes, so equality here is equality of everything observable.
std::string fleet_csv_export(int jobs) {
  core::FleetConfig cfg = small_fleet_config();
  cfg.jobs = jobs;
  core::FleetExperiment exp{cfg};
  exp.set_keep_bins(true);
  std::ostringstream out;
  for (const auto& r : exp.run_all()) {
    out << r.host << ',' << r.snapshot << ',' << r.queue_drops << ','
        << r.generated_bursts << ',' << r.events_processed << ','
        << r.summary.bursts.size() << '\n';
    telemetry::write_bins_csv(r.bins, out);
    for (const auto wm : r.queue_watermarks) out << wm << ',';
    out << '\n';
  }
  return out.str();
}

TEST(SweepDeterminism, FleetCsvExportsAreByteIdenticalAcrossJobCounts) {
  const std::string sequential = fleet_csv_export(1);
  EXPECT_EQ(fleet_csv_export(4), sequential);
  EXPECT_EQ(fleet_csv_export(16), sequential);
}

core::ResilienceConfig small_resilience_config() {
  core::ResilienceConfig cfg;
  cfg.base.num_flows = 40;
  cfg.base.burst_duration = 2_ms;
  cfg.base.num_bursts = 3;
  cfg.base.discard_bursts = 1;
  cfg.base.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.drop_rates = {0.0, 1e-3, 5e-2};
  cfg.flap_durations = {5_ms, 40_ms};
  return cfg;
}

TEST(SweepDeterminism, ResilienceModesAndCountersIdenticalAcrossJobCounts) {
  core::ResilienceConfig cfg = small_resilience_config();
  cfg.jobs = 1;
  const auto sequential = core::run_resilience_experiment(cfg);

  for (const int jobs : {4, 16}) {
    cfg.jobs = jobs;
    const auto parallel = core::run_resilience_experiment(cfg);
    ASSERT_EQ(parallel.points.size(), sequential.points.size());
    EXPECT_EQ(parallel.baseline_mode, sequential.baseline_mode);
    EXPECT_EQ(parallel.baseline.events_processed, sequential.baseline.events_processed);
    for (std::size_t i = 0; i < sequential.points.size(); ++i) {
      const auto& s = sequential.points[i];
      const auto& p = parallel.points[i];
      EXPECT_EQ(p.mode, s.mode) << "point " << i << " at jobs " << jobs;
      EXPECT_EQ(p.drop_rate, s.drop_rate);
      EXPECT_EQ(p.flap_duration, s.flap_duration);
      EXPECT_EQ(p.result.events_processed, s.result.events_processed);
      EXPECT_EQ(p.result.timeouts, s.result.timeouts);
      EXPECT_EQ(p.result.injected_drops, s.result.injected_drops);
      EXPECT_DOUBLE_EQ(p.result.avg_bct_ms, s.result.avg_bct_ms);
      EXPECT_DOUBLE_EQ(p.goodput_rel, s.goodput_rel);
    }
  }
}

TEST(SweepDeterminism, FleetSweepStatsCoverEveryTask) {
  core::FleetConfig cfg = small_fleet_config();
  cfg.jobs = 4;
  core::FleetExperiment exp{cfg};
  (void)exp.run_all();
  const auto& sweep = exp.last_sweep();
  EXPECT_EQ(sweep.tasks.size(), 6u);  // 3 hosts x 2 snapshots
  EXPECT_GT(sweep.total_events, 0u);
  for (const auto& task : sweep.tasks) EXPECT_GT(task.events, 0u);
}

// A resumed sweep's footer counts only what this process simulated: a
// replayed point's result comes from the journal, its TaskStats stay zero.
TEST(SweepResume, ReplayedPointsAddNoEventsToTheSweepStats) {
  core::FleetConfig cfg = small_fleet_config();
  cfg.trace_duration = 40_ms;
  const auto fresh = core::FleetExperiment{cfg}.run_all();

  for (const int jobs : {1, 4}) {
    cfg.jobs = jobs;
    cfg.resume = [&fresh](std::size_t index, core::HostTraceResult& out) {
      if (index % 2 != 0) return false;
      out = fresh[index];
      return true;
    };
    core::FleetExperiment exp{cfg};
    const auto results = exp.run_all();
    const auto& sweep = exp.last_sweep();

    std::uint64_t fresh_events = 0;
    std::uint64_t fresh_peak = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].events_processed, fresh[i].events_processed) << "cell " << i;
      if (i % 2 == 0) {
        EXPECT_EQ(sweep.tasks[i].events, 0u) << "replayed cell " << i;
        EXPECT_EQ(sweep.tasks[i].peak_events_pending, 0u);
        EXPECT_EQ(sweep.tasks[i].slab_high_water, 0u);
      } else {
        fresh_events += fresh[i].events_processed;
        fresh_peak = std::max(fresh_peak, fresh[i].peak_events_pending);
      }
    }
    EXPECT_GT(fresh_events, 0u);
    EXPECT_EQ(sweep.total_events, fresh_events) << "jobs=" << jobs;
    EXPECT_EQ(sweep.peak_events_pending, fresh_peak);
  }
}

}  // namespace
}  // namespace incast
