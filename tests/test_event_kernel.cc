// Golden-determinism contract of the rebuilt event kernel.
//
// The kernel rewrite (inline callbacks, slab-backed 4-ary heap, re-armable
// timers) must be invisible to every experiment: same FIFO order at equal
// timestamps, same timer semantics, and — the strongest form —
// byte-identical experiment output. The fingerprint tests
// hash a fleet CSV export and a faults sweep report with FNV-1a and compare
// against hashes committed here, at --jobs 1, 4, and 16: a regression in
// ordering, seeding, or timers anywhere in the kernel moves the hash.
//
// Suite names contain "Sweep" so the TSan CI leg (ctest -R 'Sweep') races
// the kernel under the multi-threaded sweep pool as well.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fleet_experiment.h"
#include "core/resilience_experiment.h"
#include "sim/simulator.h"
#include "telemetry/trace_io.h"
#include "workload/service_profile.h"

namespace incast {
namespace {

using namespace incast::sim::literals;

// ---- kernel-level ordering and timers --------------------------------------

TEST(EventKernel, EqualTimestampsFireInScheduleOrderThroughSimulator) {
  sim::Simulator sim;
  std::vector<int> fired;
  // Schedule from outside and from within callbacks: insertion order must
  // win at equal timestamps either way.
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(sim::Time::microseconds(10), [&fired, i] { fired.push_back(i); });
  }
  sim.schedule_at(5_us, [&] {
    for (int i = 5; i < 8; ++i) {
      sim.schedule_at(sim::Time::microseconds(10), [&fired, i] { fired.push_back(i); });
    }
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// A timer owner that counts its firings.
struct Counter {
  explicit Counter(sim::Simulator& sim) : timer{sim, this, sim::Timer::method<&Counter::fire>} {}
  void fire() { ++fired; }
  int fired{0};
  sim::Timer timer;
};

TEST(EventKernel, CancelAfterFireIsANoOp) {
  sim::Simulator sim;
  int fired = 0;
  Counter early{sim};
  early.timer.arm_at(1_us);
  sim.schedule_at(2_us, [&] {
    early.timer.disarm();  // already fired: must not disturb anything pending
    ++fired;
  });
  sim.schedule_at(3_us, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(early.fired, 1);
  EXPECT_EQ(fired, 2);
}

TEST(EventKernel, StaleIdsNeverCancelASlotsNewOccupant) {
  // The RTO pattern at simulator level: timers are armed, re-armed earlier
  // (orphaning their filed entries), disarmed and destroyed, recycling slab
  // slots. Disarming a fired or destroyed-and-rebuilt timer afterwards must
  // leave the slots' new occupants untouched.
  sim::Simulator sim;
  int one_shots = 0;
  {
    std::vector<std::unique_ptr<Counter>> gone;
    for (int i = 0; i < 500; ++i) {
      gone.push_back(std::make_unique<Counter>(sim));
      gone.back()->timer.arm_at(sim::Time::milliseconds(100 + i));
      gone.back()->timer.arm_at(sim::Time::milliseconds(1 + i % 7));
      if (i % 2 == 0) gone.back()->timer.disarm();
    }
  }  // every timer destroyed while filed
  EXPECT_EQ(sim.events_pending(), 0u);
  Counter fired_early{sim};
  fired_early.timer.arm_at(1_us);
  sim.run_until(2_us);
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(sim::Time::milliseconds(1 + i), [&] { ++one_shots; });
  }
  Counter live{sim};
  live.timer.arm_at(50_ms);
  fired_early.timer.disarm();  // stale: it already fired
  EXPECT_EQ(sim.events_pending(), 51u);
  sim.run();
  EXPECT_EQ(fired_early.fired, 1);
  EXPECT_EQ(live.fired, 1);
  EXPECT_EQ(one_shots, 50);
}

TEST(EventKernel, ReserveIsInvisibleToResults) {
  auto run_chain = [](std::size_t reserve) {
    sim::Simulator sim;
    if (reserve > 0) sim.reserve_events(reserve);
    std::vector<std::int64_t> stamps;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(sim::Time::microseconds(100 - i),
                      [&stamps, &sim] { stamps.push_back(sim.now().ns()); });
    }
    sim.run();
    return stamps;
  };
  EXPECT_EQ(run_chain(0), run_chain(4096));
}

TEST(EventKernel, FootprintCountersTrackTheRun) {
  sim::Simulator sim;
  for (int i = 0; i < 32; ++i) {
    sim.schedule_at(sim::Time::microseconds(1 + i), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.peak_events_pending(), 32u);
  EXPECT_EQ(sim.slab_high_water(), 32u);
  EXPECT_EQ(sim.events_processed(), 32u);
}

// Counts the lives of a capture. A fresh construction or a copy starts a
// life and the destruction of an object that still owns its state ends one;
// a move hands the life over without starting or ending one.
struct Lives {
  int started = 0;
  int copies = 0;
  int ended = 0;
  int calls = 0;
  [[nodiscard]] int live() const { return started - ended; }
};

struct CountedCapture {
  explicit CountedCapture(Lives* l) : lives{l} { ++lives->started; }
  CountedCapture(const CountedCapture& o) : lives{o.lives} {
    ++lives->started;
    ++lives->copies;
  }
  CountedCapture(CountedCapture&& o) noexcept
      : lives{o.lives}, owns{std::exchange(o.owns, false)} {}
  CountedCapture& operator=(const CountedCapture&) = delete;
  ~CountedCapture() {
    if (owns) ++lives->ended;
  }
  void operator()() const { ++lives->calls; }

  Lives* lives;
  bool owns{true};
};
static_assert(!std::is_trivially_copyable_v<CountedCapture>);
static_assert(!std::is_trivially_destructible_v<CountedCapture>);

TEST(EventKernel, NonTrivialCapturesLiveOncePerEventWhileTheSlabGrows) {
  // Each of four parent events schedules 200 children while it runs, half
  // of them a counted capture and half a std::function holding one, so the
  // slab grows — relocating every pending capture — under a running
  // callback. Every capture must be built once (no copies), called once and
  // destroyed once; the running parent's capture is the only live one
  // outside the queue.
  sim::Simulator sim;
  Lives lives;
  constexpr int kParents = 4;
  constexpr int kChildren = 200;
  for (int p = 0; p < kParents; ++p) {
    sim.schedule_at(sim::Time::microseconds(1 + p),
                    [c = CountedCapture{&lives}, &sim, &lives] {
                      c();
                      for (int i = 0; i < kChildren / 2; ++i) {
                        sim.schedule_in(1_us, CountedCapture{&lives});
                        std::function<void()> forwarded = CountedCapture{&lives};
                        sim.schedule_in(2_us, std::move(forwarded));
                      }
                      EXPECT_EQ(lives.live(), static_cast<int>(sim.events_pending()) + 1);
                    });
  }
  ASSERT_EQ(lives.live(), kParents);
  sim.run();
  EXPECT_EQ(lives.started, kParents * (1 + kChildren));
  EXPECT_EQ(lives.copies, 0);
  EXPECT_EQ(lives.calls, lives.started);
  EXPECT_EQ(lives.ended, lives.started);
  EXPECT_GT(sim.slab_high_water(), static_cast<std::size_t>(kChildren));
}

TEST(EventKernel, AnUnrunCaptureIsDestroyedOnceWithTheSimulator) {
  Lives lives;
  {
    sim::Simulator sim;
    sim.schedule_at(1_us, CountedCapture{&lives});
    sim.schedule_at(2_us, [c = CountedCapture{&lives}] { c(); });
    sim.run_until(1_us);
    EXPECT_EQ(lives.live(), 1);
  }
  EXPECT_EQ(lives.started, 2);
  EXPECT_EQ(lives.calls, 1);
  EXPECT_EQ(lives.ended, 2);
}

// ---- golden fingerprints ---------------------------------------------------

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The exact bytes `incast_sim fleet --export-csv` would write for each
// trace, plus the scalar outcomes — equality of this string is equality of
// everything the fleet experiment observes.
std::string fleet_export(int jobs) {
  core::FleetConfig cfg;
  cfg.profile = workload::service_by_name("messaging");
  cfg.profile.max_flows = 30;
  cfg.profile.body_median_flows = 15.0;
  cfg.num_hosts = 2;
  cfg.num_snapshots = 2;
  cfg.trace_duration = 60_ms;
  cfg.base_seed = 11;
  cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.tcp.rtt.min_rto = 200_ms;
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

// The faults sweep reduced to its deterministic outcome fields (doubles at
// full round-trip precision).
std::string faults_export(int jobs) {
  core::ResilienceConfig cfg;
  cfg.base.num_flows = 30;
  cfg.base.burst_duration = 2_ms;
  cfg.base.num_bursts = 2;
  cfg.base.discard_bursts = 1;
  cfg.base.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.drop_rates = {0.0, 5e-2};
  cfg.flap_durations = {5_ms};
  cfg.jobs = jobs;
  const auto report = core::run_resilience_experiment(cfg);
  std::ostringstream out;
  out << std::setprecision(17);
  out << core::to_string(report.baseline_mode) << ','
      << report.baseline.events_processed << '\n';
  for (const auto& p : report.points) {
    out << core::to_string(p.mode) << ',' << p.drop_rate << ','
        << p.flap_duration.ns() << ',' << p.result.events_processed << ','
        << p.result.timeouts << ',' << p.result.injected_drops << ','
        << p.result.avg_bct_ms << ',' << p.goodput_rel << ','
        << p.recovery_after_flap_ms << '\n';
  }
  return out.str();
}

// Committed golden fingerprints. If a kernel change moves one of these, the
// change altered observable simulation behavior — that is a determinism
// regression unless the new behavior is intentional, reviewed, and these
// constants are updated in the same commit.
constexpr std::uint64_t kFleetGoldenFnv = 0x3898e3d2316d4688ULL;
constexpr std::uint64_t kFaultsGoldenFnv = 0x3a2f640f903ee7d1ULL;

TEST(EventKernelSweepDeterminism, FleetExportMatchesCommittedGoldenAtAnyJobs) {
  for (const int jobs : {1, 4, 16}) {
    const std::string csv = fleet_export(jobs);
    ASSERT_GT(csv.size(), 1000u);
    EXPECT_EQ(fnv1a(csv), kFleetGoldenFnv) << "jobs=" << jobs;
  }
}

TEST(EventKernelSweepDeterminism, FaultsExportMatchesCommittedGoldenAtAnyJobs) {
  for (const int jobs : {1, 4, 16}) {
    const std::string report = faults_export(jobs);
    ASSERT_GT(report.size(), 100u);
    EXPECT_EQ(fnv1a(report), kFaultsGoldenFnv) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace incast
