// Tests for sim::Bandwidth and the bandwidth-delay product helper.
#include "sim/units.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace incast::sim {
namespace {

using namespace incast::sim::literals;

TEST(Bandwidth, NamedConstructorsAgree) {
  EXPECT_EQ(Bandwidth::gigabits_per_second(1).bps(), 1'000'000'000);
  EXPECT_EQ(Bandwidth::megabits_per_second(1000), Bandwidth::gigabits_per_second(1));
  EXPECT_EQ(Bandwidth::kilobits_per_second(1000), Bandwidth::megabits_per_second(1));
}

TEST(Bandwidth, SerializationTime) {
  const auto g10 = Bandwidth::gigabits_per_second(10);
  // 1500 B at 10 Gbps = 1.2 us.
  EXPECT_EQ(g10.serialization_time(1500), Time::nanoseconds(1200));
  // 40 B ACK at 10 Gbps = 32 ns.
  EXPECT_EQ(g10.serialization_time(40), Time::nanoseconds(32));
  // 1500 B at 100 Gbps = 120 ns.
  EXPECT_EQ(Bandwidth::gigabits_per_second(100).serialization_time(1500),
            Time::nanoseconds(120));
}

TEST(Bandwidth, SerializationTimeFastPathMatchesTheWideProduct) {
  // Below 2^30 bytes serialization_time divides in 64 bits; at and above it
  // (aggregates past ~1.07 GB) in 128. Both must agree with the 128-bit
  // product everywhere, at round and at odd rates.
  const std::int64_t sizes[] = {0,           1,
                                1500,        (std::int64_t{1} << 30) - 1,
                                std::int64_t{1} << 30,
                                1'100'000'000,  // past ~1.07 GB: int64 would overflow
                                540'000'000'000};
  const std::int64_t rates[] = {1,          7,           999'999'937,
                                10'000'000'000, 25'000'000'001, 100'000'000'000,
                                400'000'000'000};
  for (const std::int64_t bps : rates) {
    for (const std::int64_t bytes : sizes) {
      SCOPED_TRACE(testing::Message() << bytes << " B at " << bps << " bps");
      const __int128 wide = static_cast<__int128>(bytes) * 8'000'000'000 / bps;
      if (wide > std::numeric_limits<std::int64_t>::max()) continue;  // not a Time
      EXPECT_EQ(Bandwidth::bits_per_second(bps).serialization_time(bytes),
                Time::nanoseconds(static_cast<std::int64_t>(wide)));
    }
  }
  // The aggregate past ~1.07 GB: a degree-8000 incast of 270 kB flows
  // (2.16 GB) at 10 Gbps.
  EXPECT_EQ(Bandwidth::gigabits_per_second(10).serialization_time(2'160'000'000),
            Time::nanoseconds(1'728'000'000));
}

TEST(Bandwidth, BytesIn) {
  const auto g10 = Bandwidth::gigabits_per_second(10);
  // 10 Gbps for 1 ms = 1.25 MB.
  EXPECT_EQ(g10.bytes_in(1_ms), 1'250'000);
  EXPECT_EQ(g10.bytes_in(Time::zero()), 0);
}

TEST(Bandwidth, PaperBdpIs37500Bytes) {
  // Section 4: "BDP ... is 10 Gbps x 30 us = 37.5 KB".
  const auto bdp =
      bandwidth_delay_product_bytes(Bandwidth::gigabits_per_second(10), 30_us);
  EXPECT_EQ(bdp, 37'500);
}

TEST(Bandwidth, ScalingAndRatios) {
  const auto g10 = Bandwidth::gigabits_per_second(10);
  EXPECT_EQ(g10 * 0.5, Bandwidth::gigabits_per_second(5));
  EXPECT_DOUBLE_EQ(Bandwidth::gigabits_per_second(100) / g10, 10.0);
}

TEST(Bandwidth, ToString) {
  EXPECT_EQ(Bandwidth::gigabits_per_second(10).to_string(), "10Gbps");
  EXPECT_EQ(Bandwidth::megabits_per_second(250).to_string(), "250Mbps");
  EXPECT_EQ(Bandwidth::bits_per_second(999).to_string(), "999bps");
}

TEST(Bandwidth, SerializationTimeRoundTripsWithBytesIn) {
  const auto g25 = Bandwidth::gigabits_per_second(25);
  const std::int64_t bytes = 123'456;
  const Time t = g25.serialization_time(bytes);
  // bytes_in(serialization_time(b)) == b up to integer truncation.
  EXPECT_NEAR(static_cast<double>(g25.bytes_in(t)), static_cast<double>(bytes), 4.0);
}

}  // namespace
}  // namespace incast::sim
