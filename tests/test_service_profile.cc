// Tests for the Table 1 service profiles and their samplers.
#include "workload/service_profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace incast::workload {
namespace {

TEST(ServiceCatalog, HasTheFiveTable1Services) {
  const auto& catalog = service_catalog();
  ASSERT_EQ(catalog.size(), 5u);
  std::set<std::string> names;
  for (const auto& p : catalog) names.insert(p.name);
  EXPECT_EQ(names, (std::set<std::string>{"storage", "aggregator", "indexer", "messaging",
                                          "video"}));
}

TEST(ServiceCatalog, DescriptionsMatchTable1) {
  EXPECT_EQ(service_by_name("storage").description, "Distributed key-value store");
  EXPECT_EQ(service_by_name("aggregator").description,
            "Collects content to display on a page");
  EXPECT_EQ(service_by_name("indexer").description, "Indexing service for recommendations");
  EXPECT_EQ(service_by_name("messaging").description,
            "Distributed real-time messaging system");
  EXPECT_EQ(service_by_name("video").description, "Video analytics service");
}

TEST(ServiceCatalog, LookupUnknownThrows) {
  EXPECT_THROW((void)service_by_name("nope"), std::out_of_range);
}

TEST(ServiceProfile, FlowCountsWithinBounds) {
  sim::Rng rng{1};
  for (const auto& p : service_catalog()) {
    for (int i = 0; i < 2000; ++i) {
      const int flows = sample_flow_count(p, rng, false, 1.0);
      ASSERT_GE(flows, p.min_flows) << p.name;
      ASSERT_LE(flows, p.max_flows) << p.name;
    }
  }
}

TEST(ServiceProfile, BodyMedianApproximatelyHonored) {
  const auto& p = service_by_name("video");  // no low mode: clean body
  sim::Rng rng{2};
  std::vector<int> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(sample_flow_count(p, rng, false, 1.0));
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(samples[samples.size() / 2], p.body_median_flows,
              p.body_median_flows * 0.05);
}

TEST(ServiceProfile, AltRegimeShiftsMedian) {
  const auto& p = service_by_name("video");
  ASSERT_GT(p.alt_median_flows, p.body_median_flows);
  sim::Rng rng{3};
  double normal_total = 0;
  double alt_total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) normal_total += sample_flow_count(p, rng, false, 1.0);
  for (int i = 0; i < n; ++i) alt_total += sample_flow_count(p, rng, true, 1.0);
  EXPECT_GT(alt_total / n, normal_total / n + 20.0);
}

TEST(ServiceProfile, LowFlowModeCreatesBimodalCliff) {
  const auto& p = service_by_name("storage");
  sim::Rng rng{4};
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (sample_flow_count(p, rng, false, 1.0) <= p.low_mode_max) ++low;
  }
  const double low_fraction = static_cast<double>(low) / n;
  // Figure 2c: between 10% and 45% of storage/aggregator bursts are
  // low-flow. Storage models the 45% cliff.
  EXPECT_NEAR(low_fraction, p.low_mode_probability, 0.05);
}

TEST(ServiceProfile, DurationsAreOneToTwentyMilliseconds) {
  sim::Rng rng{5};
  for (const auto& p : service_catalog()) {
    for (int i = 0; i < 2000; ++i) {
      const sim::Time d = sample_burst_duration(p, rng);
      ASSERT_GE(d, sim::Time::milliseconds(1)) << p.name;
      ASSERT_LE(d, sim::Time::milliseconds(p.max_duration_ms)) << p.name;
      // Whole milliseconds, as measured at 1 ms granularity.
      ASSERT_EQ(d.ns() % 1'000'000, 0) << p.name;
    }
  }
}

TEST(ServiceProfile, MostBurstsAreShort) {
  // Figure 2b: "about 60% of bursts being either 1 or 2 ms" across
  // services. Verify the catalog-wide average is in that regime.
  sim::Rng rng{6};
  int short_bursts = 0;
  int total = 0;
  for (const auto& p : service_catalog()) {
    for (int i = 0; i < 4000; ++i) {
      if (sample_burst_duration(p, rng) <= sim::Time::milliseconds(2)) ++short_bursts;
      ++total;
    }
  }
  const double fraction = static_cast<double>(short_bursts) / total;
  EXPECT_GT(fraction, 0.45);
  EXPECT_LT(fraction, 0.80);
}

TEST(ServiceProfile, UtilizationWithinConfiguredBand) {
  sim::Rng rng{7};
  for (const auto& p : service_catalog()) {
    for (int i = 0; i < 500; ++i) {
      const double u = sample_burst_utilization(p, rng);
      ASSERT_GE(u, p.util_lo);
      ASSERT_LT(u, p.util_hi);
    }
  }
}

TEST(ServiceProfile, HostFactorIsDeterministicAndTight) {
  const auto& p = service_by_name("aggregator");
  for (int h = 0; h < 20; ++h) {
    const double f1 = host_factor(p, h);
    const double f2 = host_factor(p, h);
    EXPECT_DOUBLE_EQ(f1, f2);
    // Hosts of one service look alike (Figure 3b): within ~20% of 1.
    EXPECT_GT(f1, 0.75);
    EXPECT_LT(f1, 1.3);
  }
  // Different hosts are not all identical.
  EXPECT_NE(host_factor(p, 0), host_factor(p, 1));
}

TEST(ServiceProfile, HostFactorVariesByService) {
  EXPECT_NE(host_factor(service_by_name("storage"), 0),
            host_factor(service_by_name("video"), 0));
}

TEST(ServiceProfile, FlowCountP99ReachesHundreds) {
  // Figure 2c: p99 flow counts reach 200-500 for the big services.
  sim::Rng rng{8};
  const auto& video = service_by_name("video");
  std::vector<int> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(sample_flow_count(video, rng, false, 1.0));
  std::sort(samples.begin(), samples.end());
  const int p99 = samples[samples.size() * 99 / 100];
  EXPECT_GE(p99, 400);
  EXPECT_LE(p99, 500);
}

}  // namespace
}  // namespace incast::workload
