// Determinism contract for the collateral-damage experiment: the whole
// (mode x degree) grid runs on a SweepRunner, every point is an independent
// simulation, and the CSV artifact must be byte-identical at any --jobs.
//
// The suite name contains "Sweep" so the TSan CI leg (ctest -R 'Sweep')
// races the grid across a real worker pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/collateral_experiment.h"
#include "core/task_journal.h"

namespace incast {
namespace {

core::CollateralConfig small_grid() {
  core::CollateralConfig cfg;
  // All four queue modes at a small fan-in: fast enough for CI, large
  // enough that every mechanism (pauses, trims, NACKs, credits) fires.
  cfg.degrees = {8};
  cfg.num_bursts = 2;
  cfg.burst_duration = sim::Time::milliseconds(3);
  cfg.inter_burst_gap = sim::Time::milliseconds(2);
  // A shallow trim queue so even a degree-8 burst actually trims.
  cfg.trim_queue_capacity_packets = 100;
  cfg.max_sim_time = sim::Time::seconds(5);
  cfg.audit_mode = sim::AuditMode::kStrict;
  cfg.seed = 11;
  return cfg;
}

TEST(CollateralSweepDeterminism, CsvIsByteIdenticalAcrossJobCounts) {
  core::CollateralConfig cfg = small_grid();
  cfg.jobs = 1;
  const core::CollateralReport sequential = core::run_collateral_experiment(cfg);
  const std::string baseline = core::collateral_csv(sequential);
  ASSERT_EQ(sequential.points.size(), 4u);
  // A vacuously empty run would make the identity check meaningless.
  for (const auto& p : sequential.points) {
    EXPECT_GT(p.victim_delivered_bytes, 0) << core::to_string(p.mode);
  }

  for (const int jobs : {4, 16}) {
    cfg.jobs = jobs;
    const std::string csv = core::collateral_csv(core::run_collateral_experiment(cfg));
    EXPECT_EQ(baseline, csv) << "jobs=" << jobs;
  }
}

TEST(CollateralSweepDeterminism, EveryModeRunsCleanUnderTheStrictAuditor) {
  const core::CollateralReport report = core::run_collateral_experiment(small_grid());
  ASSERT_EQ(report.points.size(), 4u);
  for (const auto& p : report.points) {
    EXPECT_EQ(p.audit_violations, 0u) << core::to_string(p.mode);
  }
  EXPECT_TRUE(report.sweep.failures.empty());
}

TEST(CollateralSweepDeterminism, EachModeExercisesItsMechanism) {
  const core::CollateralReport report = core::run_collateral_experiment(small_grid());
  ASSERT_EQ(report.points.size(), 4u);
  for (const auto& p : report.points) {
    switch (p.mode) {
      case core::QueueMode::kDropTail:
      case core::QueueMode::kCredit:
        EXPECT_EQ(p.pfc_pause_frames, 0) << core::to_string(p.mode);
        EXPECT_EQ(p.trimmed_packets, 0) << core::to_string(p.mode);
        break;
      case core::QueueMode::kPfc:
        // Lossless: backpressure instead of loss.
        EXPECT_GT(p.pfc_pause_frames, 0);
        EXPECT_EQ(p.queue_drops, 0);
        EXPECT_EQ(p.pfc_overflow_drops, 0);
        break;
      case core::QueueMode::kTrim:
        EXPECT_GT(p.trimmed_packets, 0);
        EXPECT_GT(p.incast_nacks + p.victim_nacks, 0);
        break;
    }
  }
}

// Committed fingerprints of the CSV `collateral --degrees 16,64 --bursts 2`
// writes, in two parts: the header with the TCP modes' rows, and the credit
// rows. A change that moves one altered that part's behaviour.
constexpr std::uint64_t kCollateralTcpGoldenFnv = 0x9cd35d0f468d593eULL;
// Last move: credit points stop at their last burst's completion instead
// of at the next 1 ms poll (0xa3b7d07db7af1633 before).
constexpr std::uint64_t kCollateralCreditGoldenFnv = 0x844d36ab9efff179ULL;

TEST(CollateralSweepDeterminism, CsvMatchesCommittedGoldens) {
  core::CollateralConfig cfg;
  cfg.degrees = {16, 64};
  cfg.num_bursts = 2;
  const std::string csv = core::collateral_csv(core::run_collateral_experiment(cfg));
  std::string tcp;
  std::string credit;
  std::istringstream lines{csv};
  for (std::string line; std::getline(lines, line);) {
    (line.starts_with("credit,") ? credit : tcp) += line + '\n';
  }
  EXPECT_EQ(core::fnv1a(tcp), kCollateralTcpGoldenFnv)
      << std::hex << core::fnv1a(tcp) << std::dec << '\n' << tcp;
  EXPECT_EQ(core::fnv1a(credit), kCollateralCreditGoldenFnv)
      << std::hex << core::fnv1a(credit) << std::dec << '\n' << credit;
}

}  // namespace
}  // namespace incast
