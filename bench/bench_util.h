// Shared helpers for the figure/table reproduction benches.
//
// Every bench accepts a scale via the INCAST_BENCH_SCALE environment
// variable: "quick" (CI smoke), "default", or "full" (paper-scale host and
// snapshot counts; minutes of CPU), parsed by core::scale_from_env as for
// `incast_sim run`. Benches print which scale is active so output files
// are self-describing.
//
// INCAST_JOBS controls how many worker threads the fleet-grid sweeps use
// (sim::SweepRunner); unset or 0 means all hardware threads, 1 is the
// historical sequential path. Output is byte-identical either way.
#ifndef INCAST_BENCH_BENCH_UTIL_H_
#define INCAST_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>

#include "core/catalog.h"
#include "core/error.h"

namespace incast::bench {

using core::Scale;

// The INCAST_BENCH_SCALE scale; a value naming no scale exits 2.
inline Scale bench_scale() {
  static const Scale scale = [] {
    try {
      return core::scale_from_env();
    } catch (const core::Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(core::exit_code(e.category()));
    }
  }();
  return scale;
}

// Picks a value by scale.
template <typename T>
T by_scale(T quick, T normal, T full) {
  switch (bench_scale()) {
    case Scale::kQuick:
      return quick;
    case Scale::kDefault:
      return normal;
    case Scale::kFull:
      return full;
  }
  return normal;
}

// Worker-thread count for sweep-shaped benches: INCAST_JOBS, or 0 (= all
// hardware threads) when unset/unparsable.
inline int jobs() {
  const char* env = std::getenv("INCAST_JOBS");
  if (env == nullptr) return 0;
  const int v = std::atoi(env);
  return v > 0 ? v : 0;
}

inline void print_scale_banner() {
  std::printf("[scale: %s — set INCAST_BENCH_SCALE=quick|default|full; "
              "INCAST_JOBS=N for N sweep threads]\n",
              core::scale_name(bench_scale()));
}

}  // namespace incast::bench

#endif  // INCAST_BENCH_BENCH_UTIL_H_
