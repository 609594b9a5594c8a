// The experiment catalog: the Section 4 dumbbell sweeps as data.
//
// Each figure and ablation that sweeps run_incast_experiment over one
// dumbbell config is one CatalogRow: the config's deltas from the
// IncastExperimentConfig defaults, the swept axis as labelled points that
// each edit the config, the columns to print and the paper's expectation.
// `incast_sim run <id>` runs a row; the rows' ids are listed in
// EXPERIMENTS.md.
//
// The scale (INCAST_BENCH_SCALE: quick, default or full) sets each row's
// burst count; the Section 3 fleet benches read the same variable.
#ifndef INCAST_CORE_CATALOG_H_
#define INCAST_CORE_CATALOG_H_

#include <array>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/incast_experiment.h"

namespace incast::core {

// How big a run is: "quick" (CI smoke), "default", or "full" (paper-scale
// counts; minutes of CPU).
enum class Scale { kQuick, kDefault, kFull };

[[nodiscard]] const char* scale_name(Scale scale) noexcept;

// The scale INCAST_BENCH_SCALE names; unset means kDefault. Any other
// value throws core::Error (kConfig, exit 2) rather than running a scale
// the caller did not ask for.
[[nodiscard]] Scale scale_from_env();

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

struct CatalogRow {
  std::string id;
  std::string title;
  std::array<int, 3> bursts{};  // num_bursts at quick, default, full
  ConfigEdit base;              // the deltas from the IncastExperimentConfig defaults
  std::string axis;             // header of the label column
  std::vector<CatalogPoint> points;
  std::vector<std::string> columns;  // names in the shared column table
  SeriesPrinter series{nullptr};     // optional
  std::string expectation;
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

// Runs every point of `row` in order. A point's config is the defaults,
// then the row's deltas, the scale's burst count, the point's edit and
// last `harness`, the caller's run-hardening settings (auditor mode,
// cancellation flag), which must not change what the run simulates.
[[nodiscard]] std::vector<CatalogRun> run_row(const CatalogRow& row, Scale scale,
                                              const ConfigEdit& harness = {});

// Prints a row's runs: header, each point's series, the table of the row's
// columns, and the expectation. Throws std::logic_error if the row names a
// column the table does not have.
void print_row(const CatalogRow& row, Scale scale, const std::vector<CatalogRun>& runs,
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
