// Tests for the CLI argument parser.
#include "core/cli_args.h"

#include <gtest/gtest.h>

#include <vector>

namespace incast::core {
namespace {

using namespace incast::sim::literals;

CliArgs make(std::initializer_list<const char*> argv) {
  std::vector<const char*> full{"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return CliArgs{static_cast<int>(full.size()), full.data()};
}

TEST(CliArgs, KeyValueForms) {
  auto args = make({"--flows", "500", "--duration=15ms", "--verbose"});
  EXPECT_EQ(args.get("flows"), "500");
  EXPECT_EQ(args.get("duration"), "15ms");
  EXPECT_EQ(args.get("verbose"), "true");  // bare flag
  EXPECT_FALSE(args.get("missing").has_value());
}

TEST(CliArgs, PositionalArguments) {
  auto args = make({"burst", "--flows", "10", "extra"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "burst");
  EXPECT_EQ(args.positional()[1], "extra");
}

TEST(CliArgs, TypedGetters) {
  auto args = make({"--n", "42", "--x", "2.5", "--on", "yes", "--t", "15ms", "--bw",
                    "10Gbps"});
  EXPECT_EQ(args.int_or("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.double_or("x", 0.0), 2.5);
  EXPECT_TRUE(args.bool_or("on", false));
  EXPECT_EQ(args.time_or("t", sim::Time::zero()), 15_ms);
  EXPECT_EQ(args.bandwidth_or("bw", sim::Bandwidth::zero()),
            sim::Bandwidth::gigabits_per_second(10));
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgs, DefaultsWhenAbsent) {
  auto args = make({});
  EXPECT_EQ(args.int_or("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.double_or("x", 1.5), 1.5);
  EXPECT_FALSE(args.bool_or("on", false));
  EXPECT_EQ(args.time_or("t", 5_ms), 5_ms);
  EXPECT_EQ(args.get_or("s", "dflt"), "dflt");
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgs, MalformedValuesCollectErrors) {
  auto args = make({"--n", "abc", "--t", "fast", "--on", "maybe", "--bw", "much"});
  EXPECT_EQ(args.int_or("n", 7), 7);
  EXPECT_EQ(args.time_or("t", 5_ms), 5_ms);
  EXPECT_FALSE(args.bool_or("on", false));
  EXPECT_EQ(args.bandwidth_or("bw", sim::Bandwidth::zero()), sim::Bandwidth::zero());
  EXPECT_EQ(args.errors().size(), 4u);
}

TEST(CliArgs, UnusedKeysDetected) {
  auto args = make({"--used", "1", "--typo", "2"});
  (void)args.int_or("used", 0);
  const auto unused = args.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(CliArgs, RangeCheckedGettersAcceptInRangeValues) {
  auto args = make({"--flows", "500", "--rate", "0.25", "--gap", "10ms"});
  EXPECT_EQ(args.int_or("flows", 1, 1, 100'000), 500);
  EXPECT_DOUBLE_EQ(args.double_or("rate", 0.0, 0.0, 1.0), 0.25);
  EXPECT_EQ(args.time_or("gap", sim::Time::zero(), sim::Time::zero()), 10_ms);
  // Boundary values are in range.
  auto edge = make({"--flows", "1", "--rate", "1"});
  EXPECT_EQ(edge.int_or("flows", 5, 1, 100'000), 1);
  EXPECT_DOUBLE_EQ(edge.double_or("rate", 0.0, 0.0, 1.0), 1.0);
  EXPECT_TRUE(args.errors().empty());
  EXPECT_TRUE(edge.errors().empty());
}

TEST(CliArgs, RangeCheckedGettersRejectOutOfRangeValues) {
  auto args = make({"--flows", "0", "--rate", "1.5", "--gap", "-3ms"});
  EXPECT_EQ(args.int_or("flows", 10, 1, 100'000), 10);      // fallback returned
  EXPECT_DOUBLE_EQ(args.double_or("rate", 0.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(args.time_or("gap", 5_ms, sim::Time::zero()), 5_ms);
  EXPECT_EQ(args.errors().size(), 3u);

  // NaN compares false against both bounds; it must still be rejected.
  auto nan_args = make({"--rate", "nan"});
  EXPECT_DOUBLE_EQ(nan_args.double_or("rate", 0.25, 0.0, 1.0), 0.25);
  EXPECT_EQ(nan_args.errors().size(), 1u);
}

TEST(CliArgs, RejectUnknownTurnsTyposIntoErrors) {
  auto args = make({"--flows", "10", "--flws", "20"});
  (void)args.int_or("flows", 0);
  EXPECT_TRUE(args.errors().empty());
  args.reject_unknown();
  ASSERT_EQ(args.errors().size(), 1u);
  EXPECT_NE(args.errors()[0].find("flws"), std::string::npos);
  EXPECT_NE(args.errors()[0].find("unknown"), std::string::npos);
}

TEST(CliArgs, RejectUnknownIsQuietWhenEverythingWasRead) {
  auto args = make({"--flows", "10"});
  (void)args.int_or("flows", 0);
  args.reject_unknown();
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgs, NegativeNumbersAreValuesNotFlags) {
  // "--delta -5" : "-5" does not start with "--", so it is the value.
  auto args = make({"--delta", "-5"});
  EXPECT_EQ(args.int_or("delta", 0), -5);
}

TEST(CliArgs, FlagFollowedByFlagIsBare) {
  auto args = make({"--a", "--b", "7"});
  EXPECT_EQ(args.get("a"), "true");
  EXPECT_EQ(args.int_or("b", 0), 7);
}

TEST(ResolveParallelism, AutoDomainsTakeEveryHardwareThread) {
  Parallelism p;
  std::string err;
  ASSERT_TRUE(resolve_parallelism(/*jobs=*/0, /*domains=*/0, /*hw=*/8, p, err));
  EXPECT_EQ(p.domains, 8);
  EXPECT_EQ(p.jobs, 1);  // 8 / 8 leaves nothing over
}

TEST(ResolveParallelism, AutoJobsTakeWhatTheDomainsLeaveOver) {
  Parallelism p;
  std::string err;
  ASSERT_TRUE(resolve_parallelism(0, /*domains=*/2, /*hw=*/8, p, err));
  EXPECT_EQ(p.domains, 2);
  EXPECT_EQ(p.jobs, 4);
}

TEST(ResolveParallelism, AutoJobsNeverDropBelowOne) {
  Parallelism p;
  std::string err;
  ASSERT_TRUE(resolve_parallelism(0, /*domains=*/16, /*hw=*/4, p, err));
  EXPECT_EQ(p.domains, 16);
  EXPECT_EQ(p.jobs, 1);
}

TEST(ResolveParallelism, ZeroHardwareThreadsMeansOne) {
  // std::thread::hardware_concurrency() may legitimately return 0.
  Parallelism p;
  std::string err;
  ASSERT_TRUE(resolve_parallelism(0, 0, /*hw=*/0, p, err));
  EXPECT_EQ(p.domains, 1);
  EXPECT_EQ(p.jobs, 1);
}

TEST(ResolveParallelism, ExplicitOversubscriptionIsRejected) {
  Parallelism p;
  std::string err;
  EXPECT_FALSE(resolve_parallelism(/*jobs=*/4, /*domains=*/4, /*hw=*/8, p, err));
  EXPECT_NE(err.find("oversubscribes"), std::string::npos);
  EXPECT_NE(err.find("16"), std::string::npos);  // the offending product
}

TEST(ResolveParallelism, ExplicitFitIsAccepted) {
  Parallelism p;
  std::string err;
  ASSERT_TRUE(resolve_parallelism(/*jobs=*/2, /*domains=*/4, /*hw=*/8, p, err));
  EXPECT_EQ(p.jobs, 2);
  EXPECT_EQ(p.domains, 4);
}

TEST(ResolveParallelism, SerialSideStaysPermissive) {
  // jobs=1 means the sweep is serial: a large explicit --domains is fine
  // even past the hardware count (the engine's threads block at barriers,
  // they do not thrash), and vice versa for --jobs with one domain.
  Parallelism p;
  std::string err;
  ASSERT_TRUE(resolve_parallelism(/*jobs=*/1, /*domains=*/64, /*hw=*/4, p, err));
  EXPECT_EQ(p.domains, 64);
  ASSERT_TRUE(resolve_parallelism(/*jobs=*/64, /*domains=*/1, /*hw=*/4, p, err));
  EXPECT_EQ(p.jobs, 64);
}

TEST(ResolveParallelism, NegativeValuesAreRejected) {
  Parallelism p;
  std::string err;
  EXPECT_FALSE(resolve_parallelism(-1, 0, 8, p, err));
  EXPECT_FALSE(resolve_parallelism(0, -2, 8, p, err));
}

}  // namespace
}  // namespace incast::core
