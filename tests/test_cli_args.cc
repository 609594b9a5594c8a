// Tests for the CLI argument parser.
#include "core/cli_args.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/auditor.h"

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
  std::int64_t n = 0;
  double x = 0.0;
  bool on = false;
  sim::Time t = sim::Time::zero();
  sim::Bandwidth bw = sim::Bandwidth::zero();
  args.read("n", n, "n");
  args.read("x", x, "x");
  args.read("on", on, "on");
  args.read("t", t, "t");
  args.read("bw", bw, "bw");
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_TRUE(on);
  EXPECT_EQ(t, 15_ms);
  EXPECT_EQ(bw, sim::Bandwidth::gigabits_per_second(10));
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgs, DefaultsWhenAbsent) {
  auto args = make({});
  std::int64_t n = 7;
  double x = 1.5;
  bool on = false;
  sim::Time t = 5_ms;
  args.read("n", n, "n");
  args.read("x", x, "x");
  args.read("on", on, "on");
  args.read("t", t, "t");
  EXPECT_EQ(n, 7);
  EXPECT_DOUBLE_EQ(x, 1.5);
  EXPECT_FALSE(on);
  EXPECT_EQ(t, 5_ms);
  EXPECT_EQ(args.get_or("s", "dflt"), "dflt");
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgs, MalformedValuesCollectErrors) {
  auto args = make({"--n", "abc", "--t", "fast", "--on", "maybe", "--bw", "much"});
  std::int64_t n = 7;
  sim::Time t = 5_ms;
  bool on = false;
  sim::Bandwidth bw = sim::Bandwidth::zero();
  args.read("n", n, "n");
  args.read("t", t, "t");
  args.read("on", on, "on");
  args.read("bw", bw, "bw");
  EXPECT_EQ(n, 7);
  EXPECT_EQ(t, 5_ms);
  EXPECT_FALSE(on);
  EXPECT_EQ(bw, sim::Bandwidth::zero());
  EXPECT_EQ(args.errors().size(), 4u);
}

TEST(CliArgs, UnusedKeysDetected) {
  auto args = make({"--used", "1", "--typo", "2"});
  int used = 0;
  args.read("used", used, "used");
  const auto unused = args.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(CliArgs, RangeCheckedGettersAcceptInRangeValues) {
  auto args = make({"--flows", "500", "--rate", "0.25", "--gap", "10ms"});
  int flows = 1;
  double rate = 0.0;
  sim::Time gap = sim::Time::zero();
  args.read("flows", flows, 1, 100'000, "flows");
  args.read("rate", rate, 0.0, 1.0, "rate");
  args.read("gap", gap, sim::Time::zero(), "gap");
  EXPECT_EQ(flows, 500);
  EXPECT_DOUBLE_EQ(rate, 0.25);
  EXPECT_EQ(gap, 10_ms);
  // Boundary values are in range.
  auto edge = make({"--flows", "1", "--rate", "1"});
  int edge_flows = 5;
  double edge_rate = 0.0;
  edge.read("flows", edge_flows, 1, 100'000, "flows");
  edge.read("rate", edge_rate, 0.0, 1.0, "rate");
  EXPECT_EQ(edge_flows, 1);
  EXPECT_DOUBLE_EQ(edge_rate, 1.0);
  EXPECT_TRUE(args.errors().empty());
  EXPECT_TRUE(edge.errors().empty());
}

TEST(CliArgs, RangeCheckedGettersRejectOutOfRangeValues) {
  auto args = make({"--flows", "0", "--rate", "1.5", "--gap", "-3ms"});
  int flows = 10;
  double rate = 0.0;
  sim::Time gap = 5_ms;
  args.read("flows", flows, 1, 100'000, "flows");
  args.read("rate", rate, 0.0, 1.0, "rate");
  args.read("gap", gap, sim::Time::zero(), "gap");
  EXPECT_EQ(flows, 10);  // the default is kept
  EXPECT_DOUBLE_EQ(rate, 0.0);
  EXPECT_EQ(gap, 5_ms);
  EXPECT_EQ(args.errors().size(), 3u);

  // NaN compares false against both bounds; it must still be rejected.
  auto nan_args = make({"--rate", "nan"});
  double nan_rate = 0.25;
  nan_args.read("rate", nan_rate, 0.0, 1.0, "rate");
  EXPECT_DOUBLE_EQ(nan_rate, 0.25);
  EXPECT_EQ(nan_args.errors().size(), 1u);
}

TEST(CliArgs, RejectUnknownTurnsTyposIntoErrors) {
  auto args = make({"--flows", "10", "--flws", "20"});
  int flows = 0;
  args.read("flows", flows, "flows");
  EXPECT_TRUE(args.errors().empty());
  args.reject_unknown();
  ASSERT_EQ(args.errors().size(), 1u);
  EXPECT_NE(args.errors()[0].find("flws"), std::string::npos);
  EXPECT_NE(args.errors()[0].find("unknown"), std::string::npos);
}

TEST(CliArgs, RejectUnknownIsQuietWhenEverythingWasRead) {
  auto args = make({"--flows", "10"});
  int flows = 0;
  args.read("flows", flows, "flows");
  args.reject_unknown();
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgs, NegativeNumbersAreValuesNotFlags) {
  // "--delta -5" : "-5" does not start with "--", so it is the value.
  auto args = make({"--delta", "-5"});
  int delta = 0;
  args.read("delta", delta, "delta");
  EXPECT_EQ(delta, -5);
}

TEST(CliArgs, FlagFollowedByFlagIsBare) {
  auto args = make({"--a", "--b", "7"});
  EXPECT_EQ(args.get("a"), "true");
  int b = 0;
  args.read("b", b, "b");
  EXPECT_EQ(b, 7);
}

TEST(CliArgs, ReadTakesItsDefaultFromTheField) {
  auto args = make({"--flows", "40"});
  int flows = 500;
  int bursts = 11;
  std::uint64_t seed = 7;
  args.read("flows", flows, 1, 100'000, "senders");
  args.read("bursts", bursts, 1, 10'000, "bursts");
  args.read("seed", seed, "seed");
  EXPECT_EQ(flows, 40);
  EXPECT_EQ(bursts, 11);
  EXPECT_EQ(seed, 7u);
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgs, ReadLeavesTheDefaultOnABadValue) {
  auto args = make({"--flows", "0", "--rate", "nan", "--gap", "-1ms", "--on", "maybe"});
  int flows = 500;
  double rate = 0.25;
  sim::Time gap = 10_ms;
  bool on = false;
  args.read("flows", flows, 1, 100'000, "senders");
  args.read("rate", rate, 0.0, 1.0, "probability");
  args.read("gap", gap, sim::Time::zero(), "gap");
  args.read("on", on, "switch");
  EXPECT_EQ(flows, 500);
  EXPECT_DOUBLE_EQ(rate, 0.25);
  EXPECT_EQ(gap, 10_ms);
  EXPECT_FALSE(on);
  EXPECT_EQ(args.errors().size(), 4u);
}

// The --audit grammar: exactly the names sim::to_string prints.
TEST(CliArgs, ChoiceReadsAuditMode) {
  const auto read_mode = [](const char* value, sim::AuditMode& mode) {
    auto args = make({"--audit", value});
    args.choice("audit", mode,
                {sim::AuditMode::kOff, sim::AuditMode::kRelaxed, sim::AuditMode::kStrict},
                sim::to_string, "auditor");
    return args.errors().empty();
  };
  sim::AuditMode mode{sim::AuditMode::kRelaxed};
  EXPECT_TRUE(read_mode("off", mode));
  EXPECT_EQ(mode, sim::AuditMode::kOff);
  EXPECT_TRUE(read_mode("relaxed", mode));
  EXPECT_EQ(mode, sim::AuditMode::kRelaxed);
  EXPECT_TRUE(read_mode("strict", mode));
  EXPECT_EQ(mode, sim::AuditMode::kStrict);
  EXPECT_FALSE(read_mode("bogus", mode));
  EXPECT_EQ(mode, sim::AuditMode::kStrict);  // a bad name keeps the default
}

TEST(CliArgs, ChoiceErrorNamesEveryValue) {
  auto args = make({"--audit", "loud"});
  sim::AuditMode mode{sim::AuditMode::kRelaxed};
  args.choice("audit", mode,
              {sim::AuditMode::kOff, sim::AuditMode::kRelaxed, sim::AuditMode::kStrict},
              sim::to_string, "auditor");
  ASSERT_EQ(args.errors().size(), 1u);
  EXPECT_NE(args.errors()[0].find("'loud' (off|relaxed|strict)"), std::string::npos);
}

TEST(CliArgs, ListReadsCommaSeparatedValues) {
  auto args = make({"--degrees", "8,16,2000", "--rates", "0,1e-3", "--flaps", "10ms,50ms"});
  std::vector<int> degrees{64};
  std::vector<double> rates;
  std::vector<sim::Time> flaps;
  std::vector<int> untouched{1, 2};
  args.list("degrees", degrees, 1, 100'000, "fan-ins");
  args.list("rates", rates, 0.0, 1.0, "rates");
  args.list("flaps", flaps, sim::Time::zero(), sim::Time::infinity(), "flaps");
  args.list("absent", untouched, 1, 10, "absent");
  EXPECT_EQ(degrees, (std::vector<int>{8, 16, 2000}));
  EXPECT_EQ(rates, (std::vector<double>{0.0, 1e-3}));
  EXPECT_EQ(flaps, (std::vector<sim::Time>{10_ms, 50_ms}));
  EXPECT_EQ(untouched, (std::vector<int>{1, 2}));
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgs, ListRejectsEmptyListsAndBadElements) {
  for (const char* bad : {"", "8,,16", "8,0", "8,x", "8,"}) {
    auto args = make({"--degrees", bad});
    std::vector<int> degrees{64};
    args.list("degrees", degrees, 1, 100'000, "fan-ins");
    EXPECT_EQ(args.errors().size(), 1u) << "'" << bad << "'";
    EXPECT_EQ(degrees, (std::vector<int>{64})) << "'" << bad << "'";
  }
  auto args = make({"--rates", "0,nan"});
  std::vector<double> rates;
  args.list("rates", rates, 0.0, 1.0, "rates");
  EXPECT_EQ(args.errors().size(), 1u);
  EXPECT_TRUE(rates.empty());
}

TEST(CliArgs, ListOfChoices) {
  auto args = make({"--modes", "relaxed,off"});
  std::vector<sim::AuditMode> modes{sim::AuditMode::kStrict};
  args.list("modes", modes,
            {sim::AuditMode::kOff, sim::AuditMode::kRelaxed, sim::AuditMode::kStrict},
            sim::to_string, "modes");
  EXPECT_EQ(modes, (std::vector<sim::AuditMode>{sim::AuditMode::kRelaxed, sim::AuditMode::kOff}));
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgs, FlagListRecordsEveryDeclaredFlag) {
  auto args = make({});
  int flows = 500;
  double rate = 0.1;
  sim::Time gap = 10_ms;
  bool tlp = false;
  std::string out;
  std::vector<int> degrees{1, 2};
  sim::AuditMode mode{sim::AuditMode::kRelaxed};
  args.read("flows", flows, 1, 100'000, "senders in the incast");
  args.read("rate", rate, 0.0, 1.0, "drop probability");
  args.read("gap", gap, sim::Time::zero(), "idle time");
  args.read("tlp", tlp, "tail loss probes");
  args.read("out", out, "output file");
  args.list("degrees", degrees, 1, 8, "fan-ins");
  args.choice("audit", mode,
              {sim::AuditMode::kOff, sim::AuditMode::kRelaxed, sim::AuditMode::kStrict},
              sim::to_string, "auditor");
  const std::string list = args.flag_list();
  for (const char* want :
       {"--flows INT", "senders in the incast; default 500; [1, 100000]",
        "--rate NUM", "default 0.1; [0, 1]", "--gap TIME", "default 10ms; [0s, inf]",
        "--tlp ", "--out TEXT", "--degrees INT,...", "default 1,2; [1, 8]",
        "--audit off|relaxed|strict", "auditor; default relaxed"}) {
    EXPECT_NE(list.find(want), std::string::npos) << want << "\n" << list;
  }
  EXPECT_EQ(std::count(list.begin(), list.end(), '\n'), 7);
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
