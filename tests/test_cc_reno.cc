// Tests for NewReno congestion control (with and without classic ECN).
#include <gtest/gtest.h>

#include "tcp/cc/reno.h"

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

AckEvent ack(std::int64_t acked, bool ece = false, std::int64_t snd_una = 0,
             std::int64_t snd_nxt = 1'000'000) {
  AckEvent ev;
  ev.newly_acked_bytes = acked;
  ev.ece = ece;
  ev.snd_una = snd_una;
  ev.snd_nxt = snd_nxt;
  ev.now = 1_ms;
  return ev;
}

TEST(RenoCc, StartsAtInitialWindow) {
  RenoCc cc{config(), kMss, false};
  EXPECT_EQ(cc.cwnd_bytes(), 10 * kMss);
  EXPECT_TRUE(cc.in_slow_start());
  EXPECT_EQ(cc.name(), "reno");
}

TEST(RenoCc, SlowStartGrowsOneMssPerMssAcked) {
  RenoCc cc{config(), kMss, false};
  const std::int64_t before = cc.cwnd_bytes();
  cc.on_ack(ack(kMss));
  EXPECT_EQ(cc.cwnd_bytes(), before + kMss);
}

TEST(RenoCc, SlowStartDoublesPerWindow) {
  RenoCc cc{config(), kMss, false};
  const std::int64_t start = cc.cwnd_bytes();
  // Ack one full window's worth of segments.
  for (int i = 0; i < 10; ++i) cc.on_ack(ack(kMss));
  EXPECT_EQ(cc.cwnd_bytes(), 2 * start);
}

TEST(RenoCc, SlowStartIncreaseCappedAtOneMssPerAck) {
  RenoCc cc{config(), kMss, false};
  const std::int64_t before = cc.cwnd_bytes();
  // A jumbo cumulative ACK (e.g. after coalescing) still grows at most 1
  // MSS (ABC with L=1).
  cc.on_ack(ack(5 * kMss));
  EXPECT_EQ(cc.cwnd_bytes(), before + kMss);
}

TEST(RenoCc, CongestionAvoidanceGrowsOneMssPerRtt) {
  RenoCc cc{config(), kMss, false};
  cc.on_loss(20 * kMss);  // exit slow start: cwnd = ssthresh = 10 MSS
  cc.on_recovery_exit();
  EXPECT_FALSE(cc.in_slow_start());
  const std::int64_t w = cc.cwnd_bytes();
  const int segments_per_window = static_cast<int>(w / kMss);
  // One window of ACKs -> ~1 MSS growth.
  for (int i = 0; i < segments_per_window; ++i) cc.on_ack(ack(kMss));
  EXPECT_EQ(cc.cwnd_bytes(), w + kMss);
}

TEST(RenoCc, LossHalvesToHalfFlightSize) {
  RenoCc cc{config(), kMss, false};
  cc.on_loss(10 * kMss);
  EXPECT_EQ(cc.ssthresh_bytes(), 5 * kMss);
  cc.on_recovery_exit();
  EXPECT_EQ(cc.cwnd_bytes(), 5 * kMss);
}

TEST(RenoCc, LossFloorsAtTwoMss) {
  RenoCc cc{config(), kMss, false};
  cc.on_loss(kMss);
  cc.on_recovery_exit();
  EXPECT_EQ(cc.cwnd_bytes(), 2 * kMss);
}

TEST(RenoCc, TimeoutCollapsesToOneMss) {
  RenoCc cc{config(), kMss, false};
  cc.on_timeout();
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
  EXPECT_EQ(cc.ssthresh_bytes(), 5 * kMss);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(RenoCc, EcnIgnoredWhenDisabled) {
  RenoCc cc{config(), kMss, /*ecn_enabled=*/false};
  const std::int64_t before = cc.cwnd_bytes();
  cc.on_ack(ack(kMss, /*ece=*/true));
  EXPECT_GT(cc.cwnd_bytes(), before);  // grew, no reduction
}

TEST(RenoCc, EcnHalvesOncePerWindow) {
  RenoCc cc{config(), kMss, /*ecn_enabled=*/true};
  const std::int64_t before = cc.cwnd_bytes();
  cc.on_ack(ack(kMss, true, /*snd_una=*/kMss, /*snd_nxt=*/10 * kMss));
  EXPECT_EQ(cc.cwnd_bytes(), before / 2);
  // Further ECE within the same window: no additional reduction.
  cc.on_ack(ack(kMss, true, 2 * kMss, 10 * kMss));
  EXPECT_GE(cc.cwnd_bytes(), before / 2);
  // Past the recorded snd_nxt, a new ECE reduces again.
  const std::int64_t w = cc.cwnd_bytes();
  cc.on_ack(ack(kMss, true, 11 * kMss, 20 * kMss));
  EXPECT_EQ(cc.cwnd_bytes(), w / 2 < kMss ? kMss : w / 2);
}

TEST(RenoCc, ResetToInitialWindow) {
  RenoCc cc{config(), kMss, false};
  cc.on_timeout();
  cc.reset_to_initial_window();
  EXPECT_EQ(cc.cwnd_bytes(), 10 * kMss);
}

}  // namespace
}  // namespace incast::tcp
