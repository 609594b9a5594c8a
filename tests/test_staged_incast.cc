// Tests for the cyclic incast driver's admission window: the staged
// incast of the Section 5.2 proposal.
#include <gtest/gtest.h>

#include "telemetry/queue_monitor.h"
#include "workload/cyclic_incast.h"

namespace incast::workload {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

tcp::TcpConfig tcp_config() {
  tcp::TcpConfig c;
  c.cc = tcp::CcAlgorithm::kDctcp;
  c.rtt.min_rto = 200_ms;
  return c;
}

// A staged incast admits each flow with at most 10 us of jitter.
CyclicIncastDriver::Config staged_config() {
  CyclicIncastDriver::Config c;
  c.start_jitter_max = 10_us;
  return c;
}

TEST(StagedIncast, CompletesAllBursts) {
  Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 50}};
  CyclicIncastDriver::Config cfg = staged_config();
  cfg.num_flows = 50;
  cfg.group_size = 10;
  cfg.num_bursts = 2;
  cfg.burst_duration = 2_ms;
  CyclicIncastDriver driver{sim, topo, tcp_config(), cfg, 1};
  driver.start();
  sim.run_until(5_s);
  EXPECT_TRUE(driver.finished());
  ASSERT_EQ(driver.bursts().size(), 2u);
  for (auto* s : driver.senders()) EXPECT_TRUE(s->all_acked());
}

TEST(StagedIncast, ConcurrencyNeverExceedsGroupSize) {
  Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 60}};
  CyclicIncastDriver::Config cfg = staged_config();
  cfg.num_flows = 60;
  cfg.group_size = 8;
  cfg.num_bursts = 1;
  cfg.burst_duration = 5_ms;
  CyclicIncastDriver driver{sim, topo, tcp_config(), cfg, 2};

  // Poll concurrency: flows with supplied-but-unacked demand.
  auto senders = driver.senders();
  int max_active = 0;
  std::function<void()> poll = [&] {
    int active = 0;
    for (auto* s : senders) {
      if (s->app_limit() > 0 && !s->all_acked()) ++active;
    }
    max_active = std::max(max_active, active);
    if (!driver.finished()) sim.schedule_in(50_us, poll);
  };
  sim.schedule_in(50_us, poll);

  driver.start();
  sim.run_until(5_s);
  ASSERT_TRUE(driver.finished());
  EXPECT_LE(max_active, cfg.group_size);
  EXPECT_GE(max_active, cfg.group_size / 2);  // the window actually fills
}

TEST(StagedIncast, AvoidsMode3WhereUnstagedCollapses) {
  // 1500 flows past the degenerate point: unstaged -> overflow + RTOs and
  // ~200 ms completion; staged at 60 concurrent -> lossless and near the
  // ideal 15 ms (this is the paper's Section 5.2 claim, quantified).
  const int flows = 1500;

  Simulator sim_a;
  net::Dumbbell topo_a{sim_a, net::DumbbellConfig{.num_senders = flows}};
  CyclicIncastDriver::Config un_cfg;
  un_cfg.num_flows = flows;
  un_cfg.num_bursts = 2;
  un_cfg.burst_duration = 15_ms;
  CyclicIncastDriver unstaged{sim_a, topo_a, tcp_config(), un_cfg, 3};
  unstaged.start();
  sim_a.run_until(10_s);
  ASSERT_TRUE(unstaged.finished());
  std::int64_t unstaged_timeouts = 0;
  for (auto* s : unstaged.senders()) unstaged_timeouts += s->stats().timeouts;

  Simulator sim_b;
  net::Dumbbell topo_b{sim_b, net::DumbbellConfig{.num_senders = flows}};
  CyclicIncastDriver::Config st_cfg = staged_config();
  st_cfg.num_flows = flows;
  st_cfg.group_size = 60;
  st_cfg.num_bursts = 2;
  st_cfg.burst_duration = 15_ms;
  CyclicIncastDriver staged{sim_b, topo_b, tcp_config(), st_cfg, 3};
  staged.start();
  sim_b.run_until(10_s);
  ASSERT_TRUE(staged.finished());
  std::int64_t staged_timeouts = 0;
  for (auto* s : staged.senders()) staged_timeouts += s->stats().timeouts;

  // Unstaged: burst 1 (measured) suffers drops/timeouts; BCT ~ min RTO.
  EXPECT_GT(unstaged_timeouts, 0);
  EXPECT_GT(unstaged.bursts()[1].completion_time().ms(), 100.0);
  // Staged: no drops at all and BCT within 2x of the ideal burst length.
  EXPECT_EQ(topo_b.bottleneck_queue().stats().dropped_packets, 0);
  EXPECT_EQ(staged_timeouts, 0);
  EXPECT_LT(staged.bursts()[1].completion_time().ms(), 30.0);
}

TEST(StagedIncast, GroupSizeOneIsFullySerial) {
  Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 5}};
  CyclicIncastDriver::Config cfg = staged_config();
  cfg.num_flows = 5;
  cfg.group_size = 1;
  cfg.num_bursts = 1;
  cfg.burst_duration = 1_ms;
  CyclicIncastDriver driver{sim, topo, tcp_config(), cfg, 4};
  driver.start();
  sim.run_until(5_s);
  EXPECT_TRUE(driver.finished());
}

// Bursts that overlap under a fixed period queue behind the window in flow
// order; every burst still completes and the window still holds.
TEST(StagedIncast, FixedPeriodBacklogWaitsForTheWindow) {
  Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 20}};
  CyclicIncastDriver::Config cfg = staged_config();
  cfg.num_flows = 20;
  cfg.group_size = 4;
  cfg.num_bursts = 3;
  cfg.burst_duration = 1_ms;
  cfg.inter_burst_gap = Time::zero();
  cfg.schedule = BurstSchedule::kFixedPeriod;
  CyclicIncastDriver driver{sim, topo, tcp_config(), cfg, 6};
  const auto senders = driver.senders();
  int max_active = 0;
  std::function<void()> poll = [&] {
    int active = 0;
    for (auto* s : senders) {
      if (!s->all_acked()) ++active;
    }
    max_active = std::max(max_active, active);
    if (!driver.finished()) sim.schedule_in(20_us, poll);
  };
  sim.schedule_in(20_us, poll);
  driver.start();
  sim.run_until(5_s);
  ASSERT_TRUE(driver.finished());
  EXPECT_EQ(driver.bursts().size(), 3u);
  EXPECT_LE(max_active, cfg.group_size);
  for (auto* s : senders) EXPECT_EQ(s->app_limit(), 3 * driver.demand_per_flow_bytes());
}

// The window stages credit flows the same way: a flow holds undelivered
// demand only while admitted.
TEST(StagedIncast, WindowAdmitsCreditFlows) {
  Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 20}};
  CyclicIncastDriver::Config cfg = staged_config();
  cfg.num_flows = 20;
  cfg.group_size = 4;
  cfg.num_bursts = 2;
  cfg.burst_duration = 1_ms;
  CyclicIncastDriver driver{sim, topo, CyclicIncastDriver::CreditFlows{}, cfg, 7};
  const auto senders = driver.credit_senders();
  int max_active = 0;
  std::function<void()> poll = [&] {
    int active = 0;
    for (std::size_t i = 0; i < senders.size(); ++i) {
      const auto flow = static_cast<net::FlowId>(i) + 1;
      if (senders[i]->demand_bytes() > driver.credit_receiver().received_bytes(flow)) ++active;
    }
    max_active = std::max(max_active, active);
    if (!driver.finished()) sim.schedule_in(20_us, poll);
  };
  sim.schedule_in(20_us, poll);
  driver.start();
  sim.run_until(5_s);
  ASSERT_TRUE(driver.finished());
  EXPECT_EQ(driver.bursts().size(), 2u);
  EXPECT_LE(max_active, cfg.group_size);
  EXPECT_GE(max_active, cfg.group_size / 2);  // the window actually fills
}

TEST(StagedIncast, DemandMatchesCyclicDriver) {
  Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 100}};
  CyclicIncastDriver::Config cfg = staged_config();
  cfg.num_flows = 100;
  cfg.burst_duration = 15_ms;
  CyclicIncastDriver driver{sim, topo, tcp_config(), cfg, 5};
  // Same equal-demand split as the unstaged workload: 18.75 MB / 100.
  EXPECT_EQ(driver.demand_per_flow_bytes(), 187'500);
}

}  // namespace
}  // namespace incast::workload
