#include "core/report.h"

#include <algorithm>
#include <cassert>

namespace incast::core {

Table::Table(std::vector<std::string> headers) : headers_{std::move(headers)} {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line += '\n';
    return line;
  };

  std::string out = render_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule.append(widths[c], '-');
    rule.append(2, ' ');
  }
  while (!rule.empty() && rule.back() == ' ') rule.pop_back();
  out += rule + '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void Table::print(std::FILE* out) const { std::fputs(render().c_str(), out); }

std::string fmt(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

void print_cdf(const std::string& title, const analysis::Cdf& cdf,
               const std::vector<double>& percentiles, std::FILE* out) {
  std::fprintf(out, "%s (n=%zu)\n", title.c_str(), cdf.count());
  Table t{{"pct", "value"}};
  for (const double p : percentiles) {
    t.add_row({fmt(p, p == static_cast<int>(p) ? 0 : 1), fmt(cdf.percentile(p), 2)});
  }
  t.print(out);
}

void print_cdf_comparison(const std::string& title, const std::vector<std::string>& labels,
                          const std::vector<analysis::Cdf>& cdfs,
                          const std::vector<double>& percentiles, std::FILE* out) {
  assert(labels.size() == cdfs.size());
  std::fprintf(out, "%s\n", title.c_str());
  std::vector<std::string> headers{"pct"};
  headers.insert(headers.end(), labels.begin(), labels.end());
  Table t{headers};
  for (const double p : percentiles) {
    std::vector<std::string> row{fmt(p, p == static_cast<int>(p) ? 0 : 1)};
    for (const auto& cdf : cdfs) row.push_back(fmt(cdf.percentile(p), 2));
    t.add_row(std::move(row));
  }
  t.print(out);
  std::string counts = "n:";
  for (std::size_t i = 0; i < cdfs.size(); ++i) {
    counts += " " + labels[i] + "=" + std::to_string(cdfs[i].count());
  }
  std::fprintf(out, "%s\n", counts.c_str());
}

void print_header(const std::string& experiment_id, const std::string& caption,
                  std::FILE* out) {
  std::fprintf(out, "\n================================================================\n");
  std::fprintf(out, "%s — %s\n", experiment_id.c_str(), caption.c_str());
  std::fprintf(out, "================================================================\n");
}

void print_sweep_stats(const sim::SweepRunner::RunStats& stats, std::size_t max_task_rows,
                       std::FILE* out) {
  std::fprintf(out,
               "sweep: %zu task(s) on %d job(s) in %.2f ms — %.0f events/s\n",
               stats.tasks.size(), stats.jobs, stats.wall_ms, stats.events_per_second());
  if (stats.slab_high_water > 0) {
    std::fprintf(out,
                 "event kernel: peak %llu pending, slab high-water %llu slot(s)\n",
                 static_cast<unsigned long long>(stats.peak_events_pending),
                 static_cast<unsigned long long>(stats.slab_high_water));
  }
  if (stats.peak_rss_bytes > 0) {
    std::fprintf(out, "memory: peak RSS %.1f MiB\n",
                 static_cast<double>(stats.peak_rss_bytes) / (1024.0 * 1024.0));
  }
  if (!stats.failures.empty() || stats.retries > 0 || stats.tasks_not_run > 0) {
    std::fprintf(out,
                 "quarantine: %zu task(s) failed, %llu retr%s, %llu task(s) not run\n",
                 stats.failures.size(),
                 static_cast<unsigned long long>(stats.retries),
                 stats.retries == 1 ? "y" : "ies",
                 static_cast<unsigned long long>(stats.tasks_not_run));
    for (const sim::TaskFailure& f : stats.failures) {
      std::fprintf(out, "  task %zu (seed %llu, %d attempt(s)) [%s]: %s\n", f.index,
                   static_cast<unsigned long long>(f.seed), f.attempts,
                   sim::to_string(f.category), f.message.c_str());
    }
  }
  std::uint64_t categorized = 0;
  for (const std::uint64_t n : stats.events_by_category) categorized += n;
  if (categorized > 0) {
    std::fprintf(out, "events by category:");
    for (std::size_t c = 0; c < sim::kNumEventCategories; ++c) {
      if (stats.events_by_category[c] == 0) continue;
      std::fprintf(out, " %s=%llu", sim::to_string(static_cast<sim::EventCategory>(c)),
                   static_cast<unsigned long long>(stats.events_by_category[c]));
    }
    std::fprintf(out, "\n");
  }
  if (stats.tasks.empty()) return;
  if (stats.tasks.size() <= max_task_rows) {
    Table t{{"task", "worker", "wall", "events"}};
    for (std::size_t i = 0; i < stats.tasks.size(); ++i) {
      const auto& task = stats.tasks[i];
      t.add_row({std::to_string(i), std::to_string(task.worker),
                 fmt(task.wall_ms, 2) + " ms",
                 std::to_string(task.events)});
    }
    t.print(out);
  } else {
    double min_ms = stats.tasks.front().wall_ms, max_ms = min_ms, sum_ms = 0.0;
    for (const auto& task : stats.tasks) {
      min_ms = std::min(min_ms, task.wall_ms);
      max_ms = std::max(max_ms, task.wall_ms);
      sum_ms += task.wall_ms;
    }
    std::fprintf(out, "per-task wall: min %.2f ms, mean %.2f ms, max %.2f ms\n", min_ms,
                 sum_ms / static_cast<double>(stats.tasks.size()), max_ms);
  }
}

}  // namespace incast::core
