// Tests for the CUBIC congestion control baseline.
#include <gtest/gtest.h>

#include "tcp/cc/cubic.h"

namespace incast::tcp {
namespace {

using sim::Time;
using namespace incast::sim::literals;

constexpr std::int64_t kMss = 1460;

CcConfig config() {
  CcConfig c;
  c.initial_window_segments = 10;
  return c;
}

AckEvent ack(std::int64_t acked, Time now) {
  AckEvent ev;
  ev.newly_acked_bytes = acked;
  ev.snd_una = 0;
  ev.snd_nxt = 1'000'000;
  ev.now = now;
  return ev;
}

TEST(CubicCc, StartsInSlowStart) {
  CubicCc cc{config(), kMss};
  EXPECT_EQ(cc.cwnd_bytes(), 10 * kMss);
  EXPECT_TRUE(cc.in_slow_start());
  EXPECT_EQ(cc.name(), "cubic");
}

TEST(CubicCc, SlowStartGrowth) {
  CubicCc cc{config(), kMss};
  const std::int64_t before = cc.cwnd_bytes();
  cc.on_ack(ack(kMss, 1_ms));
  EXPECT_EQ(cc.cwnd_bytes(), before + kMss);
}

TEST(CubicCc, LossReducesByBeta) {
  CubicCc cc{config(), kMss};
  const std::int64_t before = cc.cwnd_bytes();
  cc.on_loss(before);
  cc.on_recovery_exit();
  // beta = 0.7 multiplicative decrease (exact rounding aside).
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), static_cast<double>(before) * 0.7,
              static_cast<double>(kMss));
  EXPECT_LT(cc.cwnd_bytes(), before);
}

TEST(CubicCc, GrowsBackTowardWmaxAfterLoss) {
  CubicCc cc{config(), kMss};
  const std::int64_t w_max = cc.cwnd_bytes();
  cc.on_loss(w_max);
  cc.on_recovery_exit();
  const std::int64_t reduced = cc.cwnd_bytes();
  // Feed ACKs across ~2.5 s of simulated time (K = cbrt(W_max * 0.3 / C)
  // is ~2 s for a 10-MSS W_max); cwnd climbs back toward w_max.
  Time now = 1_ms;
  for (int i = 0; i < 2000; ++i) {
    now += Time::microseconds(1250);
    cc.on_ack(ack(kMss, now));
  }
  EXPECT_GT(cc.cwnd_bytes(), reduced);
  EXPECT_GE(cc.cwnd_bytes(), static_cast<std::int64_t>(0.9 * static_cast<double>(w_max)));
}

TEST(CubicCc, ConcaveNearWmax) {
  // Right after the post-loss epoch starts, growth per unit time should
  // slow as cwnd approaches W_max (concave region of the cubic).
  CubicCc cc{config(), kMss};
  cc.on_loss(cc.cwnd_bytes());
  cc.on_recovery_exit();
  Time now = 1_ms;
  std::int64_t prev = cc.cwnd_bytes();
  std::int64_t first_delta = -1;
  std::int64_t late_delta = -1;
  for (int step = 0; step < 20; ++step) {
    for (int i = 0; i < 50; ++i) {
      now += Time::microseconds(50);
      cc.on_ack(ack(kMss, now));
    }
    const std::int64_t delta = cc.cwnd_bytes() - prev;
    if (step == 0) first_delta = delta;
    if (step == 19) late_delta = delta;
    prev = cc.cwnd_bytes();
  }
  EXPECT_GE(first_delta, 0);
  EXPECT_GE(late_delta, 0);
}

TEST(CubicCc, TimeoutCollapsesToOneMss) {
  CubicCc cc{config(), kMss};
  cc.on_timeout();
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(CubicCc, DuplicateAcksDoNotGrow) {
  CubicCc cc{config(), kMss};
  const std::int64_t before = cc.cwnd_bytes();
  cc.on_ack(ack(0, 1_ms));
  EXPECT_EQ(cc.cwnd_bytes(), before);
}

TEST(CubicCc, FactorySelection) {
  const auto cc = make_congestion_control(CcAlgorithm::kCubic, config(), kMss);
  EXPECT_EQ(cc->name(), "cubic");
  const auto dctcp = make_congestion_control(CcAlgorithm::kDctcp, config(), kMss);
  EXPECT_EQ(dctcp->name(), "dctcp");
  const auto reno = make_congestion_control(CcAlgorithm::kReno, config(), kMss);
  EXPECT_EQ(reno->name(), "reno");
  const auto reno_ecn = make_congestion_control(CcAlgorithm::kRenoEcn, config(), kMss);
  EXPECT_EQ(reno_ecn->name(), "reno-ecn");
}

TEST(CubicCc, AlgorithmNames) {
  EXPECT_STREQ(to_string(CcAlgorithm::kDctcp), "dctcp");
  EXPECT_STREQ(to_string(CcAlgorithm::kCubic), "cubic");
  EXPECT_STREQ(to_string(CcAlgorithm::kReno), "reno");
  EXPECT_STREQ(to_string(CcAlgorithm::kRenoEcn), "reno-ecn");
}

}  // namespace
}  // namespace incast::tcp
