// Integration test: a mid-transfer link blackhole (flap) forces the sender
// into RTO-driven recovery with exponential backoff, and the transfer
// completes once the link is restored.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault/fault_injector.h"
#include "net/topology.h"
#include "tcp/tcp_connection.h"

namespace incast::tcp {
namespace {

using sim::Simulator;
using sim::Time;
using namespace incast::sim::literals;

TEST(TcpBlackhole, RtoBackoffDoublesAndTransferCompletesAfterRestore) {
  Simulator sim;
  net::DumbbellConfig topo_cfg;
  topo_cfg.num_senders = 1;
  net::Dumbbell topo{sim, topo_cfg};

  // Blackhole both directions of the inter-ToR link for [2 ms, 102 ms) —
  // long enough for several RTO doublings at a 10 ms min RTO.
  fault::FaultInjector injector{sim, 1};
  fault::LinkFault& fwd = injector.install(topo.link("tor_s->tor_r"), {});
  fault::LinkFault& rev = injector.install(topo.link("tor_r->tor_s"), {});
  injector.schedule_flap(fwd, 2_ms, 100_ms);
  injector.schedule_flap(rev, 2_ms, 100_ms);

  TcpConfig cfg;
  cfg.cc = CcAlgorithm::kReno;
  cfg.rtt.min_rto = 10_ms;
  cfg.rtt.initial_rto = 10_ms;
  TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};

  const std::int64_t total = 5'000'000;
  conn.sender().add_app_data(total);
  sim.run_until(5_s);

  // The transfer survived the outage.
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(conn.receiver().rcv_nxt(), total);

  // Recovery was RTO-bound: every retransmission during the outage was
  // blackholed, so each timeout doubled the RTO before the next attempt.
  EXPECT_GE(conn.sender().stats().timeouts, 2);

  // Reconstruct the retransmission schedule from the fault trace: the
  // distinct times at which retransmitted data died in the blackhole.
  std::vector<Time> retx_times;
  for (const auto& e : fwd.trace()) {
    if (e.type == fault::FaultType::kFlapDrop && e.data && e.retransmit) {
      if (retx_times.empty() || e.at > retx_times.back()) retx_times.push_back(e.at);
    }
  }
  ASSERT_GE(retx_times.size(), 2u) << "expected repeated RTO retransmissions into the hole";

  // Consecutive RTO retransmissions must spread apart exponentially:
  // each gap roughly double the previous one.
  std::vector<double> gaps_ms;
  for (std::size_t i = 1; i < retx_times.size(); ++i) {
    gaps_ms.push_back((retx_times[i] - retx_times[i - 1]).ms());
  }
  for (std::size_t i = 1; i < gaps_ms.size(); ++i) {
    const double ratio = gaps_ms[i] / gaps_ms[i - 1];
    EXPECT_GT(ratio, 1.5) << "gap " << i << " did not back off";
    EXPECT_LT(ratio, 3.0) << "gap " << i << " backed off more than doubling";
  }

  // Nothing was injected besides the flap window.
  EXPECT_EQ(fwd.counters().random_drops, 0);
  EXPECT_EQ(fwd.counters().injected_drops(), fwd.counters().flap_drops);
  EXPECT_GT(fwd.counters().flap_drops, 0);
}

TEST(TcpBlackhole, FlapDuringIdleGapIsHarmless) {
  // The outage ends before the app writes any data: no timeouts, no drops
  // of consequence, identical delivery.
  Simulator sim;
  net::DumbbellConfig topo_cfg;
  topo_cfg.num_senders = 1;
  net::Dumbbell topo{sim, topo_cfg};

  fault::FaultInjector injector{sim, 1};
  fault::LinkFault& fwd = injector.install(topo.link("tor_s->tor_r"), {});
  injector.schedule_flap(fwd, 1_ms, 5_ms);

  TcpConfig cfg;
  cfg.cc = CcAlgorithm::kReno;
  cfg.rtt.min_rto = 10_ms;
  cfg.rtt.initial_rto = 10_ms;
  TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};

  sim.schedule_at(20_ms, [&conn] { conn.sender().add_app_data(1'000'000); });
  sim.run_until(5_s);

  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(fwd.counters().flap_drops, 0);
  EXPECT_EQ(conn.sender().stats().timeouts, 0);
}

}  // namespace
}  // namespace incast::tcp
