// Report: plain-text table / CDF / time-series printers for the benches.
//
// Every bench binary regenerates one of the paper's tables or figures as
// text: tables print aligned columns; "figures" print the underlying series
// (CDF quantiles or time series) in a gnuplot-friendly layout.
#ifndef INCAST_CORE_REPORT_H_
#define INCAST_CORE_REPORT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/cdf.h"
#include "sim/sweep.h"

namespace incast::core {

// A simple aligned-column table writer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Adds a row; must have as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  // Renders with columns padded to the widest cell.
  [[nodiscard]] std::string render() const;

  void print(std::FILE* out = stdout) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with `digits` decimal places.
[[nodiscard]] std::string fmt(double value, int digits = 2);

// The percentiles a CDF prints at unless told otherwise.
inline const std::vector<double> kCdfPercentiles{1, 5, 10, 25, 50, 75, 90, 95, 99, 100};

// Prints one labelled CDF as rows of (percentile, value).
void print_cdf(const std::string& title, const analysis::Cdf& cdf,
               const std::vector<double>& percentiles = kCdfPercentiles,
               std::FILE* out = stdout);

// Prints several CDFs side by side (one column per label) at the given
// percentiles — the layout used for the multi-service figures.
void print_cdf_comparison(const std::string& title, const std::vector<std::string>& labels,
                          const std::vector<analysis::Cdf>& cdfs,
                          const std::vector<double>& percentiles = kCdfPercentiles,
                          std::FILE* out = stdout);

// Prints a banner for a figure/table reproduction.
void print_header(const std::string& experiment_id, const std::string& caption,
                  std::FILE* out = stdout);

// Prints a parallel sweep's timing: jobs, wall time, aggregate events/sec,
// and per-task wall-time/events rows (collapsed to a min/mean/max summary
// above `max_task_rows` tasks). Wall times are the one deliberately
// non-deterministic output; everything they describe is not.
void print_sweep_stats(const sim::SweepRunner::RunStats& stats,
                       std::size_t max_task_rows = 32, std::FILE* out = stdout);

}  // namespace incast::core

#endif  // INCAST_CORE_REPORT_H_
