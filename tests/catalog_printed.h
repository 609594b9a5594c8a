// What a catalog body row prints at quick scale, captured as text.
#ifndef INCAST_TESTS_CATALOG_PRINTED_H_
#define INCAST_TESTS_CATALOG_PRINTED_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/catalog.h"

namespace incast::core {

// What the row `id` prints at quick scale.
inline std::string printed(const std::string& id) {
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

}  // namespace incast::core

#endif  // INCAST_TESTS_CATALOG_PRINTED_H_
