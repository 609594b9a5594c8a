// Committed fingerprints of what the catalog body rows built on the cyclic
// incast driver print at quick scale: the staged and credit extensions and
// the shared-buffer ablation. A change that moves one altered what the row
// reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "catalog_printed.h"
#include "core/task_journal.h"

namespace incast::core {
namespace {

constexpr std::uint64_t kExtensionStagedPrintedFnv = 0xaece083c7ec1cf07ULL;
constexpr std::uint64_t kExtensionCreditPrintedFnv = 0xd96ce6c18bc8d6e5ULL;
constexpr std::uint64_t kAblationSharedBufferPrintedFnv = 0xd9b4274c26df1011ULL;

void expect_pinned(const std::string& id, std::uint64_t golden) {
  const std::string text = printed(id);
  EXPECT_EQ(fnv1a(text), golden) << id << " 0x" << std::hex << fnv1a(text) << std::dec
                                 << '\n'
                                 << text;
}

TEST(CatalogGoldens, ExtensionStagedPrintsPinnedText) {
  expect_pinned("extension_staged", kExtensionStagedPrintedFnv);
}

TEST(CatalogGoldens, ExtensionCreditPrintsPinnedText) {
  expect_pinned("extension_credit", kExtensionCreditPrintedFnv);
}

TEST(CatalogGoldens, AblationSharedBufferPrintsPinnedText) {
  expect_pinned("ablation_shared_buffer", kAblationSharedBufferPrintedFnv);
}

}  // namespace
}  // namespace incast::core
