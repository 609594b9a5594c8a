// Tests for the Swift-like delay-based CCA and sub-MSS pacing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/topology.h"
#include "sim/random.h"
#include "tcp/cc/swift.h"
#include "tcp/tcp_connection.h"

namespace incast::tcp {
namespace {

using sim::Time;
using namespace incast::sim::literals;

constexpr std::int64_t kMss = 1460;

SwiftConfig config() {
  SwiftConfig c;
  c.mss_bytes = kMss;
  c.initial_window_segments = 10;
  c.target_delay = 60_us;
  return c;
}

AckEvent ack(std::int64_t acked, Time rtt, Time now) {
  AckEvent ev;
  ev.newly_acked_bytes = acked;
  ev.rtt_valid = true;
  ev.rtt = rtt;
  ev.now = now;
  return ev;
}

TEST(SwiftCc, GrowsBelowTargetDelay) {
  SwiftCc cc{config()};
  const std::int64_t before = cc.cwnd_bytes();
  cc.on_ack(ack(kMss, 30_us, 1_ms));
  EXPECT_GT(cc.cwnd_bytes(), before);
  EXPECT_EQ(cc.name(), "swift");
}

TEST(SwiftCc, AdditiveIncreaseIsOneSegmentPerRtt) {
  SwiftCc cc{config()};
  const std::int64_t w = cc.cwnd_bytes();
  const int segments = static_cast<int>(w / kMss);
  Time now = 1_ms;
  for (int i = 0; i < segments; ++i) {
    now += 10_us;
    cc.on_ack(ack(kMss, 30_us, now));
  }
  // One full window of ACKs below target: ~ai (1 MSS) of growth.
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes() - w), static_cast<double>(kMss),
              static_cast<double>(kMss) * 0.25);
}

TEST(SwiftCc, DecreasesAboveTargetProportionally) {
  SwiftCc cc{config()};
  const std::int64_t before = cc.cwnd_bytes();
  // Delay 120us vs target 60us: factor = 1 - 0.8 * 0.5 = 0.6.
  cc.on_ack(ack(kMss, 120_us, 1_ms));
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), static_cast<double>(before) * 0.6,
              2.0);
}

TEST(SwiftCc, DecreaseCappedByMaxMdf) {
  SwiftCc cc{config()};
  const std::int64_t before = cc.cwnd_bytes();
  // Enormous delay: raw factor would be ~0, but kSwiftMaxMdf caps at 0.5.
  cc.on_ack(ack(kMss, 10_ms, 1_ms));
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), static_cast<double>(before) * 0.5,
              2.0);
}

TEST(SwiftCc, AtMostOneDecreasePerRtt) {
  SwiftCc cc{config()};
  cc.on_ack(ack(kMss, 120_us, 1_ms));
  const std::int64_t after_first = cc.cwnd_bytes();
  // More congested ACKs within one RTT: no further decrease.
  cc.on_ack(ack(kMss, 120_us, 1_ms + 20_us));
  cc.on_ack(ack(kMss, 120_us, 1_ms + 40_us));
  EXPECT_EQ(cc.cwnd_bytes(), after_first);
  // After an RTT has elapsed, decrease is allowed again.
  cc.on_ack(ack(kMss, 120_us, 1_ms + 200_us));
  EXPECT_LT(cc.cwnd_bytes(), after_first);
}

TEST(SwiftCc, CwndDropsBelowOnePacket) {
  SwiftCc cc{config()};
  Time now = 1_ms;
  for (int i = 0; i < 50; ++i) {
    now += 1_ms;
    cc.on_ack(ack(kMss, 10_ms, now));
  }
  EXPECT_LT(cc.cwnd_bytes(), kMss);  // below one packet: the whole point
  // Floor: kSwiftMinCwndSegments * mss.
  EXPECT_GE(cc.cwnd_bytes(), static_cast<std::int64_t>(0.01 * kMss) - 1);
}

TEST(SwiftCc, RecoversFromSubPacketRegime) {
  SwiftCc cc{config()};
  Time now = 1_ms;
  for (int i = 0; i < 50; ++i) {
    now += 1_ms;
    cc.on_ack(ack(kMss, 10_ms, now));
  }
  ASSERT_LT(cc.cwnd_bytes(), kMss);
  // Delay back under target: growth resumes.
  cc.on_ack(ack(kMss, 30_us, now + 1_ms));
  EXPECT_GE(cc.cwnd_bytes(), kMss);
}

TEST(SwiftCc, LossDecreasesImmediately) {
  SwiftCc cc{config()};
  const std::int64_t before = cc.cwnd_bytes();
  cc.on_loss(before);
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), static_cast<double>(before) * 0.5,
              2.0);
}

TEST(SwiftCc, FactoryBuildsSwift) {
  CcConfig cc_config;
  cc_config.swift_target_delay = 100_us;
  const auto cc = make_congestion_control(CcAlgorithm::kSwift, cc_config, kMss);
  EXPECT_EQ(cc->name(), "swift");
  EXPECT_STREQ(to_string(CcAlgorithm::kSwift), "swift");
}

// --- Pacing integration -----------------------------------------------------

TEST(SwiftPacing, SubMssWindowStillCompletesTransfer) {
  sim::Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 1}};
  TcpConfig cfg;
  cfg.cc = CcAlgorithm::kSwift;
  // Impossible target: the flow is forced to the sub-MSS pacing regime.
  cfg.cc_config.swift_target_delay = sim::Time::nanoseconds(1);
  cfg.rtt.min_rto = 500_ms;  // pacing, not RTOs, must carry the transfer
  TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};
  conn.sender().add_app_data(30 * kMss);
  sim.run_until(10_s);

  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(conn.sender().stats().timeouts, 0);
  EXPECT_LT(conn.sender().congestion_control().cwnd_bytes(), kMss);
}

TEST(SwiftPacing, PacedPacketsAreSpacedOut) {
  sim::Simulator sim;
  net::Dumbbell topo{sim, net::DumbbellConfig{.num_senders = 1}};
  TcpConfig cfg;
  cfg.cc = CcAlgorithm::kSwift;
  cfg.cc_config.swift_target_delay = sim::Time::nanoseconds(1);

  // Record data-packet arrival times at the receiver.
  class ArrivalTap final : public net::IngressTap {
   public:
    void on_ingress(const net::Packet& p, Time now) override {
      if (p.is_data()) arrivals.push_back(now);
    }
    std::vector<Time> arrivals;
  };
  ArrivalTap tap;
  topo.receiver(0).add_ingress_tap(&tap);

  TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};
  conn.sender().add_app_data(60 * kMss);
  sim.run_until(30_s);
  ASSERT_TRUE(conn.sender().all_acked());

  // The window halves once per RTT until it collapses below one packet;
  // the tail of the transfer must then be paced at multi-RTT spacing
  // (base RTT ~30 us).
  ASSERT_GT(tap.arrivals.size(), 40u);
  for (std::size_t i = tap.arrivals.size() - 5; i < tap.arrivals.size(); ++i) {
    EXPECT_GT(tap.arrivals[i] - tap.arrivals[i - 1], 60_us);
  }
}

TEST(SwiftPacing, ManyFlowsSteadyStateHoldsLowQueueWithoutLoss) {
  // The headline Swift property: hundreds of flows in sustained incast,
  // sub-MSS windows, near-zero queue, no drops (cf. bench E1 at scale).
  sim::Simulator sim;
  const int flows = 200;
  net::DumbbellConfig topo_cfg;
  topo_cfg.num_senders = flows;
  net::Dumbbell topo{sim, topo_cfg};
  TcpConfig cfg;
  cfg.cc = CcAlgorithm::kSwift;
  cfg.cc_config.initial_window_segments = 1;
  cfg.rtt.min_rto = 200_ms;

  std::vector<std::unique_ptr<TcpConnection>> conns;
  sim::Rng rng{3};
  for (int i = 0; i < flows; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(sim, topo.sender(i), topo.receiver(0),
                                                    static_cast<net::FlowId>(i + 1), cfg));
    TcpSender* s = &conns.back()->sender();
    sim.schedule_in(rng.uniform_time(Time::zero(), 5_ms),
                    [s] { s->add_app_data(50'000'000); });
  }
  sim.run_until(300_ms);
  const auto drops_at_convergence = topo.bottleneck_queue().stats().dropped_packets;

  std::vector<std::int64_t> depths;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(300_ms + Time::milliseconds(2.0 * i),
                    [&] { depths.push_back(topo.bottleneck_queue().packets()); });
  }
  sim.run_until(500_ms);

  double mean = 0;
  for (const auto d : depths) mean += static_cast<double>(d);
  mean /= static_cast<double>(depths.size());
  // DCTCP at 200 flows would hold ~175 packets (flows - BDP); Swift's
  // delay target keeps it far lower.
  EXPECT_LT(mean, 120.0);
  EXPECT_EQ(topo.bottleneck_queue().stats().dropped_packets, drops_at_convergence);
}

}  // namespace
}  // namespace incast::tcp
