// The experiment catalog: every row runs clean, and the Section 4 rows
// reproduce the paper's qualitative claims. Bands come from the paper's
// text (Sections 4.1 and 4.3), not from measured output.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "core/catalog.h"
#include "core/resilience_experiment.h"

namespace incast::core {
namespace {

TEST(Catalog, IdsAreUniqueAndFindable) {
  std::set<std::string> ids;
  for (const CatalogRow& row : catalog()) {
    EXPECT_TRUE(ids.insert(row.id).second) << "duplicate id " << row.id;
    EXPECT_EQ(find_row(row.id), &row);
    EXPECT_NE(row.points.empty(), row.body == nullptr) << "exactly one of points or body: "
                                                       << row.id;
  }
  EXPECT_EQ(find_row("no_such_row"), nullptr);
}

// A body row runs every simulation under the row's auditor, so under
// kStrict it throws on the first violation.
TEST(Catalog, EveryRowRunsCleanUnderStrictAudit) {
  const AuditOptions strict{.audit_mode = sim::AuditMode::kStrict};
  for (const CatalogRow& row : catalog()) {
    SCOPED_TRACE(row.id);
    if (row.body != nullptr) {
      std::FILE* sink = std::tmpfile();
      ASSERT_NE(sink, nullptr);
      EXPECT_NO_THROW(run_and_print(row, Scale::kQuick, strict, sink));
      std::fclose(sink);
      continue;
    }
    std::vector<CatalogRun> runs;
    ASSERT_NO_THROW(runs = run_row(row, Scale::kQuick, strict));
    ASSERT_EQ(runs.size(), row.points.size());
    for (const CatalogRun& run : runs) {
      EXPECT_EQ(run.result.audit_violations, 0u) << run.label;
      EXPECT_EQ(run.result.bursts.size(), static_cast<std::size_t>(row.bursts[0])) << run.label;
    }
    // Every column the row names exists in the shared table.
    std::FILE* sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    EXPECT_NO_THROW(print_row(row, Scale::kQuick, runs, sink));
    std::fclose(sink);
  }
}

// Section 4.1: below the degenerate point DCTCP is safe, at it a standing
// queue marks nearly everything, and past it recovery is RTO-bound.
TEST(Catalog, Fig5PointsClassifyAsThePapersModes) {
  const CatalogRow* row = find_row("fig5_dctcp_modes");
  ASSERT_NE(row, nullptr);
  int checked = 0;
  for (const CatalogRun& run : run_row(*row, Scale::kQuick)) {
    const DctcpMode mode = classify_mode(run.result);
    if (run.config.num_flows == 60) {
      EXPECT_EQ(mode, DctcpMode::kSafe) << to_string(mode);
      ++checked;
    } else if (run.config.num_flows == 500) {
      EXPECT_EQ(mode, DctcpMode::kDegenerate) << to_string(mode);
      ++checked;
    } else if (run.config.num_flows == 1500) {
      EXPECT_EQ(mode, DctcpMode::kCollapse) << to_string(mode);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3);
}

// Section 4.3: "a long tail of flows transmits several times the median".
TEST(Catalog, Fig7InflightSkewIsSeveralTimesTheMedian) {
  const CatalogRow* row = find_row("fig7_inflight_skew");
  ASSERT_NE(row, nullptr);
  const auto runs = run_row(*row, Scale::kQuick);
  ASSERT_EQ(runs.size(), 1u);
  const InflightSkew skew = inflight_skew(runs[0].result, runs[0].config.num_flows);
  EXPECT_GE(skew.worst, 2.0);
}

}  // namespace
}  // namespace incast::core
