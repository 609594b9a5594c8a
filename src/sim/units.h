// Strong types for data rates and data sizes.
//
// Keeping Bandwidth distinct from plain numbers (and from Time) makes the
// conversion points explicit: the only way to turn bytes into time is
// Bandwidth::serialization_time, and the only way to turn time into bytes is
// Bandwidth::bytes_in — both of which are the physics of a link.
#ifndef INCAST_SIM_UNITS_H_
#define INCAST_SIM_UNITS_H_

#include <compare>
#include <cstdint>
#include <string>

#include "sim/time.h"

namespace incast::sim {

// A data rate in bits per second.
class Bandwidth {
 public:
  constexpr Bandwidth() noexcept = default;

  [[nodiscard]] static constexpr Bandwidth bits_per_second(std::int64_t bps) noexcept {
    return Bandwidth{bps};
  }
  [[nodiscard]] static constexpr Bandwidth kilobits_per_second(double kbps) noexcept {
    return Bandwidth{static_cast<std::int64_t>(kbps * 1e3)};
  }
  [[nodiscard]] static constexpr Bandwidth megabits_per_second(double mbps) noexcept {
    return Bandwidth{static_cast<std::int64_t>(mbps * 1e6)};
  }
  [[nodiscard]] static constexpr Bandwidth gigabits_per_second(double gbps) noexcept {
    return Bandwidth{static_cast<std::int64_t>(gbps * 1e9)};
  }
  [[nodiscard]] static constexpr Bandwidth zero() noexcept { return Bandwidth{0}; }

  [[nodiscard]] constexpr std::int64_t bps() const noexcept { return bps_; }
  [[nodiscard]] constexpr double mbps() const noexcept { return static_cast<double>(bps_) * 1e-6; }
  [[nodiscard]] constexpr double gbps() const noexcept { return static_cast<double>(bps_) * 1e-9; }

  // Time to serialize `bytes` onto a link of this rate.
  [[nodiscard]] constexpr Time serialization_time(std::int64_t bytes) const noexcept {
    // bytes * 8 bits / (bps bits/sec) seconds, in ns. Below 2^30 bytes
    // (every packet) the product bytes * 8e9 fits int64, so one 64-bit
    // divide does it. The int64 form overflows past ~1.07 GB, which
    // aggregate sizes (e.g. a whole incast's worth of wire bytes in the
    // scaling experiment's optimal-FCT math) do reach; those take a 128-bit
    // product. Both forms give identical results where both are defined.
    constexpr std::int64_t kNsBitsPerByte = 8 * 1'000'000'000LL;
    if (bytes >= 0 && bytes < (std::int64_t{1} << 30)) [[likely]] {
      return Time::nanoseconds(bytes * kNsBitsPerByte / bps_);
    }
    return Time::nanoseconds(
        static_cast<std::int64_t>(static_cast<__int128>(bytes) * kNsBitsPerByte / bps_));
  }

  // Bytes transferred over `duration` at this rate.
  [[nodiscard]] constexpr std::int64_t bytes_in(Time duration) const noexcept {
    // (bps / 8) bytes/sec * ns / 1e9. Multiply with doubles to avoid
    // overflow on long durations at high rates.
    return static_cast<std::int64_t>(static_cast<double>(bps_) / 8.0 * duration.sec());
  }

  constexpr auto operator<=>(const Bandwidth&) const noexcept = default;

  [[nodiscard]] friend constexpr Bandwidth operator*(Bandwidth b, double k) noexcept {
    return Bandwidth{static_cast<std::int64_t>(static_cast<double>(b.bps_) * k)};
  }
  [[nodiscard]] friend constexpr double operator/(Bandwidth a, Bandwidth b) noexcept {
    return static_cast<double>(a.bps_) / static_cast<double>(b.bps_);
  }

  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr Bandwidth(std::int64_t bps) noexcept : bps_{bps} {}

  std::int64_t bps_{0};
};

// The bandwidth-delay product in bytes: how much data must be in flight to
// keep a path of rate `bw` and round-trip time `rtt` fully utilized.
[[nodiscard]] constexpr std::int64_t bandwidth_delay_product_bytes(Bandwidth bw,
                                                                   Time rtt) noexcept {
  return bw.bytes_in(rtt);
}

}  // namespace incast::sim

#endif  // INCAST_SIM_UNITS_H_
