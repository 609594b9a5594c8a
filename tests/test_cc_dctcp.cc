// Tests for DCTCP congestion control: alpha estimation and proportional
// decrease (RFC 8257 / Alizadeh et al.).
#include <gtest/gtest.h>

#include <cmath>

#include "tcp/cc/dctcp.h"

namespace incast::tcp {
namespace {

using namespace incast::sim::literals;

constexpr std::int64_t kMss = 1460;

CcConfig config(double g = 1.0 / 16.0, double alpha0 = 1.0) {
  CcConfig c;
  c.initial_window_segments = 10;
  c.dctcp_gain = g;
  c.dctcp_initial_alpha = alpha0;
  return c;
}

AckEvent ack(std::int64_t acked, bool ece, std::int64_t snd_una, std::int64_t snd_nxt) {
  AckEvent ev;
  ev.newly_acked_bytes = acked;
  ev.ece = ece;
  ev.snd_una = snd_una;
  ev.snd_nxt = snd_nxt;
  ev.now = 1_ms;
  return ev;
}

// Reference model of the alpha recurrence, mirroring the documented
// windowing rule: a window closes when snd_una reaches the snd_nxt recorded
// at the previous close (initially the stream origin).
struct AlphaRef {
  double alpha;
  double g;
  std::int64_t acked{0};
  std::int64_t marked{0};
  std::int64_t window_end{0};

  void on_ack(std::int64_t bytes, bool ece, std::int64_t una, std::int64_t nxt) {
    acked += bytes;
    if (ece) marked += bytes;
    if (una >= window_end) {
      if (acked > 0) {
        alpha = (1.0 - g) * alpha +
                g * static_cast<double>(marked) / static_cast<double>(acked);
      }
      acked = marked = 0;
      window_end = nxt;
    }
  }
};

// Feeds `segments` ACKs, the first `marked` of them with ECE. The sender is
// modelled as always having one more window outstanding.
void feed_window(DctcpCc& cc, AlphaRef* ref, int segments, int marked, std::int64_t& una) {
  for (int i = 0; i < segments; ++i) {
    una += kMss;
    const std::int64_t nxt = una + segments * kMss;
    cc.on_ack(ack(kMss, i < marked, una, nxt));
    if (ref != nullptr) ref->on_ack(kMss, i < marked, una, nxt);
  }
}

TEST(DctcpCc, InitialAlphaFromConfig) {
  DctcpCc cc{config(1.0 / 16.0, 1.0), kMss};
  EXPECT_DOUBLE_EQ(cc.alpha(), 1.0);
  EXPECT_EQ(cc.name(), "dctcp");
}

TEST(DctcpCc, AlphaDecaysMonotonicallyWithoutMarks) {
  DctcpCc cc{config(), kMss};
  std::int64_t una = 0;
  double prev = cc.alpha();
  for (int w = 0; w < 40; ++w) {
    feed_window(cc, nullptr, 10, 0, una);
    EXPECT_LE(cc.alpha(), prev);
    prev = cc.alpha();
  }
  EXPECT_LT(cc.alpha(), 0.1);  // decayed by (1-g) per window
}

TEST(DctcpCc, AlphaMatchesReferenceRecurrence) {
  DctcpCc cc{config(1.0 / 16.0, 1.0), kMss};
  AlphaRef ref{1.0, 1.0 / 16.0};
  std::int64_t una = 0;
  // A varied marking pattern across many windows.
  for (int w = 0; w < 30; ++w) {
    feed_window(cc, &ref, 10, w % 11, una);
    ASSERT_NEAR(cc.alpha(), ref.alpha, 1e-12) << "window " << w;
  }
}

TEST(DctcpCc, AlphaConvergesToMarkingFraction) {
  DctcpCc cc{config(/*g=*/0.25, /*alpha0=*/0.0), kMss};
  std::int64_t una = 0;
  // 40% of bytes marked, many windows: alpha -> ~0.4.
  for (int w = 0; w < 80; ++w) feed_window(cc, nullptr, 10, 4, una);
  EXPECT_NEAR(cc.alpha(), 0.4, 0.05);
}

TEST(DctcpCc, FullMarkingDrivesAlphaToOne) {
  DctcpCc cc{config(1.0 / 16.0, 0.0), kMss};
  std::int64_t una = 0;
  for (int w = 0; w < 200; ++w) feed_window(cc, nullptr, 10, 10, una);
  EXPECT_NEAR(cc.alpha(), 1.0, 0.01);
}

TEST(DctcpCc, ProportionalDecreaseUsesAlpha) {
  // With alpha = 1 the reduction is the full Reno halving; with small
  // alpha it is gentle — DCTCP's defining behaviour.
  DctcpCc gentle{config(1.0 / 16.0, /*alpha0=*/0.2), kMss};
  const std::int64_t before = gentle.cwnd_bytes();
  gentle.on_ack(ack(kMss, true, kMss, 20 * kMss));
  // One window closes first (alpha' = 0.2*(15/16) + (1/16)*1 = 0.25),
  // then cwnd *= (1 - alpha'/2).
  const double alpha1 = 0.2 * (15.0 / 16.0) + 1.0 / 16.0;
  EXPECT_EQ(gentle.cwnd_bytes(),
            static_cast<std::int64_t>(static_cast<double>(before) * (1.0 - alpha1 / 2.0)));

  DctcpCc harsh{config(1.0 / 16.0, /*alpha0=*/1.0), kMss};
  const std::int64_t b2 = harsh.cwnd_bytes();
  harsh.on_ack(ack(kMss, true, kMss, 20 * kMss));
  EXPECT_EQ(b2, 10 * kMss);
  EXPECT_EQ(harsh.cwnd_bytes(), b2 / 2);
}

TEST(DctcpCc, AtMostOneDecreasePerWindow) {
  DctcpCc cc{config(1.0 / 16.0, 1.0), kMss};
  cc.on_ack(ack(kMss, true, kMss, 10 * kMss));
  const std::int64_t after_first = cc.cwnd_bytes();
  // More ECE inside the same window: no further decrease.
  cc.on_ack(ack(kMss, true, 2 * kMss, 10 * kMss));
  cc.on_ack(ack(kMss, true, 3 * kMss, 10 * kMss));
  EXPECT_GE(cc.cwnd_bytes(), after_first);
  // Next window: decrease allowed again.
  cc.on_ack(ack(kMss, true, 11 * kMss, 20 * kMss));
  EXPECT_LT(cc.cwnd_bytes(), after_first);
}

TEST(DctcpCc, CwndFloorsAtOneMss) {
  DctcpCc cc{config(1.0 / 16.0, 1.0), kMss};
  std::int64_t una = 0;
  // Hammer with marked windows; cwnd must never go below 1 MSS — the
  // "degenerate point" of Section 4.1.2.
  for (int w = 0; w < 50; ++w) {
    una += 10 * kMss;
    cc.on_ack(ack(kMss, true, una, una + 10 * kMss));
    ASSERT_GE(cc.cwnd_bytes(), kMss);
  }
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
}

TEST(DctcpCc, GrowsLikeRenoWithoutEce) {
  DctcpCc cc{config(), kMss};
  const std::int64_t before = cc.cwnd_bytes();
  cc.on_ack(ack(kMss, false, kMss, 20 * kMss));
  EXPECT_EQ(cc.cwnd_bytes(), before + kMss);  // slow start
}

TEST(DctcpCc, LossFallsBackToRenoHalving) {
  DctcpCc cc{config(), kMss};
  cc.on_loss(10 * kMss);
  EXPECT_EQ(cc.ssthresh_bytes(), 5 * kMss);
}

TEST(DctcpCc, TimeoutCollapsesToOneMss) {
  DctcpCc cc{config(), kMss};
  cc.on_timeout();
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
}

// Property sweep over the gain g: the implementation matches the reference
// recurrence for every gain.
class DctcpGainSweep : public ::testing::TestWithParam<double> {};

TEST_P(DctcpGainSweep, AlphaTracksReferenceForAnyGain) {
  const double g = GetParam();
  DctcpCc cc{config(g, /*alpha0=*/0.5), kMss};
  AlphaRef ref{0.5, g};
  std::int64_t una = 0;
  for (int w = 0; w < 20; ++w) {
    feed_window(cc, &ref, 8, (w * 3) % 9, una);
    ASSERT_NEAR(cc.alpha(), ref.alpha, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Gains, DctcpGainSweep,
                         ::testing::Values(1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0));

}  // namespace
}  // namespace incast::tcp
