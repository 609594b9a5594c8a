// The experiment catalog: every table, figure, ablation and extension of
// the reproduction as one row.
//
// A figure or ablation that sweeps run_incast_experiment over one dumbbell
// config is a sweep row: the config's deltas from the IncastExperimentConfig
// defaults, the swept axis as labelled points that each edit the config,
// the columns to print and the paper's expectation. A row that wires its
// own runs (the Section 3 fleet grids, the fabric, hand-built simulators)
// is a body row: one function that runs and prints. `incast_sim run <id>`
// runs a row; the rows' ids are listed in EXPERIMENTS.md.
//
// The scale (INCAST_BENCH_SCALE: quick, default or full) sets each row's
// size: burst counts, host and snapshot counts, trace lengths.
#ifndef INCAST_CORE_CATALOG_H_
#define INCAST_CORE_CATALOG_H_

#include <array>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/incast_experiment.h"
#include "core/run_harness.h"

namespace incast::core {

// How big a run is: "quick" (CI smoke), "default", or "full" (paper-scale
// counts; minutes of CPU).
enum class Scale { kQuick, kDefault, kFull };

[[nodiscard]] const char* scale_name(Scale scale) noexcept;

// The scale INCAST_BENCH_SCALE names; unset means kDefault. Any other
// value throws core::Error (kConfig, exit 2) rather than running a scale
// the caller did not ask for.
[[nodiscard]] Scale scale_from_env();

// One value per scale, indexed by it: {quick, default, full}.
template <typename T>
using PerScale = std::array<T, 3>;

template <typename T>
[[nodiscard]] T at(const PerScale<T>& values, Scale scale) {
  return values[static_cast<std::size_t>(scale)];
}

// A body row's runs and printing, at `scale`, every simulation under
// `audit` (which never changes what a run simulates).
using RowBody = void (*)(Scale scale, const AuditOptions& audit, std::FILE* out);

using ConfigEdit = std::function<void(IncastExperimentConfig&)>;

// One point of a row's sweep: its label (the table's first cell) and the
// edit that turns the row's config into the point's.
struct CatalogPoint {
  std::string label;
  ConfigEdit apply;
};

// Prints one point's series (queue or in-flight time series, per-burst
// completion times) after the point has run.
using SeriesPrinter = void (*)(const IncastExperimentConfig& config,
                               const IncastExperimentResult& result, std::FILE* out);

// Exactly one of `points` (a sweep row) and `body` (a body row) is set; a
// body row uses only id, title, body and expectation.
struct CatalogRow {
  std::string id;
  std::string title;
  PerScale<int> bursts{};  // num_bursts
  ConfigEdit base;         // the deltas from the IncastExperimentConfig defaults
  std::string axis;        // header of the label column
  std::vector<CatalogPoint> points;
  std::vector<std::string> columns;  // names in the shared column table
  SeriesPrinter series{nullptr};     // optional
  std::string expectation;           // optional for a body row
  RowBody body{nullptr};
};

// Every row, in the order EXPERIMENTS.md presents them.
[[nodiscard]] const std::vector<CatalogRow>& catalog();

// The row with this id, or nullptr.
[[nodiscard]] const CatalogRow* find_row(std::string_view id);

struct CatalogRun {
  std::string label;
  IncastExperimentConfig config;
  IncastExperimentResult result;
};

// Runs every point of a sweep row in order. A point's config is the
// defaults, then the row's deltas, the scale's burst count, the point's
// edit and last `audit`.
[[nodiscard]] std::vector<CatalogRun> run_row(const CatalogRow& row, Scale scale,
                                              const AuditOptions& audit = {});

// Prints a row's runs: header, each point's series, the table of the row's
// columns, and the expectation. Throws std::logic_error if the row names a
// column the table does not have.
void print_row(const CatalogRow& row, Scale scale, const std::vector<CatalogRun>& runs,
               std::FILE* out = stdout);

// Runs any row and prints it to `out`: a sweep row through run_row and
// print_row, a body row under the same header and expectation.
void run_and_print(const CatalogRow& row, Scale scale, const AuditOptions& audit = {},
                   std::FILE* out = stdout);

// p100/p50 in-flight skew over the in-flight samples with at least half
// the flows active (Section 4.3's "several times the median").
struct InflightSkew {
  double mean{0.0};
  double worst{0.0};
};
[[nodiscard]] InflightSkew inflight_skew(const IncastExperimentResult& result, int num_flows);

}  // namespace incast::core

#endif  // INCAST_CORE_CATALOG_H_
