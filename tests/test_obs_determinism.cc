// The observability determinism contract: a sweep's hub observes exactly
// one run (resumable_sweep's point 0: the fleet's (host 0, snapshot 0)
// cell, the first collateral point, the first scaling degree; for faults,
// the baseline outside the sweep), and trace timestamps are sim-time only,
// so --trace-out and --metrics-out must be byte-identical no matter how
// many SweepRunner workers execute the grid.
//
// The suite name contains "Sweep" so the TSan CI leg (ctest -R 'Sweep')
// races the hub-carrying task against the rest of the pool.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/collateral_experiment.h"
#include "core/fleet_experiment.h"
#include "core/resilience_experiment.h"
#include "core/scaling_experiment.h"
#include "obs/hub.h"
#include "workload/service_profile.h"

namespace incast {
namespace {

struct ObsOutput {
  std::string trace;
  std::string metrics;
};

// The trace and metrics a hub holds after the run(s) it observed.
ObsOutput capture(const obs::Hub& hub) {
  ObsOutput out;
  std::ostringstream trace;
  hub.write_trace(trace);
  out.trace = trace.str();
  EXPECT_TRUE(hub.has_final_metrics());
  out.metrics = hub.final_metrics().to_json();
  return out;
}

// Runs `run` against a fresh hub with tracing on and captures its output.
template <typename Run>
ObsOutput observe(Run run) {
  obs::Hub hub;
  hub.tracer().set_enabled(true);
  run(hub);
  return capture(hub);
}

ObsOutput run_fleet_with_hub(int jobs) {
  obs::Hub hub;
  hub.tracer().set_enabled(true);

  core::FleetConfig cfg;
  cfg.profile = workload::service_by_name("messaging");
  cfg.profile.max_flows = 30;
  cfg.profile.body_median_flows = 15.0;
  cfg.num_hosts = 3;
  cfg.num_snapshots = 2;
  cfg.trace_duration = sim::Time::milliseconds(40);
  cfg.base_seed = 7;
  cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.jobs = jobs;
  cfg.hub = &hub;
  const core::FleetExperiment exp{cfg};
  (void)exp.run_all();
  return capture(hub);
}

TEST(ObsSweepDeterminism, TraceAndMetricsAreByteIdenticalAcrossJobs) {
#if !INCAST_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (-DINCAST_OBS=OFF)";
#endif
  const ObsOutput sequential = run_fleet_with_hub(1);
  // A trivially empty capture would make the identity check vacuous.
  ASSERT_GT(sequential.trace.size(), 100u);
  EXPECT_NE(sequential.metrics.find("net.queue.tor_r->receiver0.drops"),
            std::string::npos);

  for (const int jobs : {4, 16}) {
    const ObsOutput parallel = run_fleet_with_hub(jobs);
    EXPECT_EQ(sequential.trace, parallel.trace) << "jobs=" << jobs;
    EXPECT_EQ(sequential.metrics, parallel.metrics) << "jobs=" << jobs;
  }
}

// `faults` observes its baseline alone: the sweep points, which run after
// it and would overwrite the final metrics, get no hub.
TEST(ObsSweepDeterminism, FaultsHubObservesOnlyTheBaseline) {
#if !INCAST_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (-DINCAST_OBS=OFF)";
#endif
  core::ResilienceConfig cfg;
  cfg.base.num_flows = 40;
  cfg.base.num_bursts = 3;
  cfg.base.burst_duration = sim::Time::milliseconds(3);
  cfg.drop_rates = {0.0, 1e-3};
  cfg.jobs = 2;

  const ObsOutput sweep = observe([&](obs::Hub& hub) {
    cfg.base.hub = &hub;
    (void)core::run_resilience_experiment(cfg);
  });
  const ObsOutput baseline = observe([&](obs::Hub& hub) {
    core::IncastExperimentConfig base = cfg.base;
    base.hub = &hub;
    (void)core::run_incast_experiment(base);
  });
  ASSERT_GT(baseline.trace.size(), 100u);
  EXPECT_EQ(sweep.trace, baseline.trace);
  EXPECT_EQ(sweep.metrics, baseline.metrics);
}

TEST(ObsSweepDeterminism, CollateralTraceAndMetricsAreByteIdenticalAcrossJobs) {
#if !INCAST_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (-DINCAST_OBS=OFF)";
#endif
  const auto run = [](int jobs) {
    return observe([jobs](obs::Hub& hub) {
      core::CollateralConfig cfg;
      cfg.degrees = {8};
      cfg.num_bursts = 2;
      cfg.burst_duration = sim::Time::milliseconds(3);
      cfg.inter_burst_gap = sim::Time::milliseconds(2);
      cfg.jobs = jobs;
      cfg.hub = &hub;
      (void)core::run_collateral_experiment(cfg);
    });
  };
  const ObsOutput sequential = run(1);
  ASSERT_GT(sequential.trace.size(), 100u);
  const ObsOutput parallel = run(4);
  EXPECT_EQ(sequential.trace, parallel.trace);
  EXPECT_EQ(sequential.metrics, parallel.metrics);
}

TEST(ObsSweepDeterminism, ScalingTraceAndMetricsAreByteIdenticalAcrossJobs) {
#if !INCAST_OBS_ENABLED
  GTEST_SKIP() << "observability compiled out (-DINCAST_OBS=OFF)";
#endif
  const auto run = [](int jobs) {
    return observe([jobs](obs::Hub& hub) {
      core::ScalingConfig cfg;
      cfg.degrees = {4, 8, 16};
      cfg.fabric = fabric::FatTreeConfig{.num_pods = 2,
                                         .leaves_per_pod = 2,
                                         .hosts_per_leaf = 4,
                                         .aggs_per_pod = 0,
                                         .num_spines = 2};
      cfg.bytes_per_flow = 27'000;
      cfg.jobs = jobs;
      cfg.hub = &hub;
      (void)core::run_scaling_experiment(cfg);
    });
  };
  const ObsOutput sequential = run(1);
  ASSERT_GT(sequential.trace.size(), 100u);
  EXPECT_NE(sequential.metrics.find("scaling.fct_ms"), std::string::npos);
  const ObsOutput parallel = run(4);
  EXPECT_EQ(sequential.trace, parallel.trace);
  EXPECT_EQ(sequential.metrics, parallel.metrics);
}

}  // namespace
}  // namespace incast
