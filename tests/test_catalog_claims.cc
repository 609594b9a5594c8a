// Claim bands for the catalog's body rows: each row, run at quick scale,
// prints the paper's qualitative claim. Every band comes from the paper's
// text, never from measured output.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/catalog.h"

namespace incast::core {
namespace {

// What the row `id` prints at quick scale.
std::string printed(const std::string& id) {
  const CatalogRow* row = find_row(id);
  if (row == nullptr) {
    ADD_FAILURE() << "no row " << id;
    return {};
  }
  std::FILE* sink = std::tmpfile();
  run_and_print(*row, Scale::kQuick, {}, sink);
  std::string text(static_cast<std::size_t>(std::ftell(sink)), '\0');
  std::rewind(sink);
  text.resize(std::fread(text.data(), 1, text.size(), sink));
  std::fclose(sink);
  return text;
}

// The first number printed after `label`.
double number_after(const std::string& text, const std::string& label) {
  const std::size_t at = text.find(label);
  if (at == std::string::npos) {
    ADD_FAILURE() << "'" << label << "' not printed";
    return 0.0;
  }
  const std::size_t digit = text.find_first_of("0123456789", at + label.size());
  return std::strtod(text.c_str() + digit, nullptr);
}

// Figure 1: "an average link utilization of 10.6%", with bursts that reach
// line rate.
TEST(CatalogClaims, Fig1LowAverageUtilizationWithLineRateBursts) {
  const std::string text = printed("fig1_example_trace");
  EXPECT_LT(number_after(text, "average link utilization"), 25.0);
  EXPECT_GE(number_after(text, "peak 1ms utilization"), 90.0);
}

// Figure 2: "the majority" of bursts are incasts (more than 25 flows).
TEST(CatalogClaims, Fig2MajorityOfBurstsAreIncasts) {
  const std::string text = printed("fig2_burst_characteristics");
  EXPECT_GT(number_after(text, "bursts that are incasts (>25 flows):"), 50.0);
}

// Section 5: receiver-driven designs handle incasts of thousands of flows.
// The credit transport never credits more than the downlink carries, so no
// point drops a packet.
TEST(CatalogClaims, CreditTransportDropsNothingAtAnyFlowCount) {
  std::istringstream lines{printed("extension_credit")};
  int points = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("credit (rdt)") == std::string::npos) continue;
    std::istringstream cells{line};
    std::string flows, transport, rdt, bct, drops;
    cells >> flows >> transport >> rdt >> bct >> drops;
    EXPECT_EQ(drops, "0") << line;
    ++points;
  }
  EXPECT_EQ(points, 3);
}

}  // namespace
}  // namespace incast::core
