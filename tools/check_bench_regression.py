#!/usr/bin/env python3
"""CI perf-regression gate for the simulator microbenchmarks.

Compares a google-benchmark JSON run (``micro_simcore
--benchmark_format=json``) against a checked-in baseline and fails when any
benchmark's throughput regresses by more than the threshold.

Throughput is taken from ``items_per_second`` when the benchmark reports it
(our benches count simulator events or queue ops as items) and falls back to
the inverse of ``real_time`` otherwise, so wall-clock-only benches are still
gated.

Usage:
  check_bench_regression.py --baseline tools/bench_baseline.json \
      --current BENCH_micro.json [--threshold 0.25] \
      [--require BM_SimulatorEventDispatch] \
      [--ratio BM_AuditorOverhead/relaxed:BM_AuditorOverhead/off:0.03]
  check_bench_regression.py --baseline tools/bench_baseline.json \
      --current BENCH_micro.json --update   # merge the run into the baseline

Exit codes: 0 ok, 1 regression found or required bench missing, 2 bad input.

Benchmarks present in only one of the two files are reported but by default
do not fail the gate (new benches have no baseline yet; retired ones are not
regressions). ``--require NAME`` (repeatable) hardens this for benches that
must never silently disappear: a required bench missing from the current
run — e.g. because it errored out, like the dispatch bench does when its
zero-allocation check trips — fails the gate just like a regression. A
required bench with no baseline row is reported and passes: its hard gate
is that it ran cleanly, so it needs no absolute speed row, which would only
measure the machine that wrote it.
``--ratio A:B:MAX`` (repeatable) gates a *relative* pair within the current
run only: benchmark A's throughput must be at least (1 - MAX) of benchmark
B's. Unlike the baseline comparison this is machine-independent — it pins an
overhead contract (e.g. relaxed auditing <= 3% over audit-off) rather than
an absolute speed. Either bench missing from the current run fails the gate.

Absolute throughput numbers differ across machines — the baseline should be
refreshed (--update) from the CI runner class it gates. ``--update`` merges
by benchmark name: entries from the current run replace same-named baseline
entries and new ones are appended, so a run of a filtered subset of the
benchmarks refreshes only those.

End-to-end speed is perfbench's job (``BENCHMARK.json``), and the scaling
ladder's deterministic bytes-per-flow budget is a ctest
(``ScalingMemoryBudget.*`` in tests/test_scaling.cc); this gate covers the
microbenchmarks only.
"""

import argparse
import json
import re
import sys


def load_throughputs(path):
    """Returns {benchmark name: items/sec-equivalent throughput}."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for bench in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions) and runs
        # that errored out (e.g. the dispatch bench's zero-allocation check
        # tripping) — an errored required bench must read as missing.
        if bench.get("run_type") == "aggregate" or bench.get("error_occurred"):
            continue
        name = bench.get("name")
        if not name:
            continue
        # Benches that pin ->Repetitions(N) grow a "/repeats:N" segment;
        # strip it so gate names stay stable (and free of ':', which the
        # --ratio A:B:MAX syntax reserves).
        name = re.sub(r"/repeats:\d+", "", name)
        items = bench.get("items_per_second")
        if items is None:
            real = bench.get("real_time")
            items = 1e9 / real if real else None  # benches report nanoseconds
        if items:
            # Best-of-N across repetitions: peak throughput is far less
            # noisy than the mean on shared CI runners, and a genuine
            # regression slows every repetition.
            out[name] = max(out.get(name, 0.0), float(items))
    if not out:
        print(f"error: no benchmarks found in {path}", file=sys.stderr)
        sys.exit(2)
    return out


def merge_baseline(current_path, baseline_path):
    """Merges the current run's benchmarks into the baseline by name."""
    with open(current_path) as f:
        current = json.load(f)
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, ValueError):
        baseline = {}  # first run for this baseline file: start fresh
    # Replace whole name-groups, not individual entries: a google-benchmark
    # run carries several same-named rows per bench (one per repetition,
    # plus aggregates), and the gate's best-of-N logic needs all of them.
    current_names = {b.get("name") for b in current.get("benchmarks", [])}
    kept = [b for b in baseline.get("benchmarks", [])
            if b.get("name") not in current_names]
    replaced = len(baseline.get("benchmarks", [])) - len(kept)
    appended = len(current.get("benchmarks", []))
    baseline["benchmarks"] = kept + current.get("benchmarks", [])
    # Context (host info, CPU scaling flags) describes the most recent
    # contributing run; keep the current run's.
    if "context" in current:
        baseline["context"] = current["context"]
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"baseline updated: {current_path} -> {baseline_path} "
          f"({replaced} entries replaced by {appended}, {len(kept)} kept)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated fractional slowdown (default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="merge the current run into the baseline by "
                             "benchmark name and exit")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="benchmark that must be present in the current "
                             "run (repeatable); missing = gate failure")
    parser.add_argument("--ratio", action="append", default=[],
                        metavar="A:B:MAX",
                        help="within the current run, bench A must be at most "
                             "MAX (fraction) slower than bench B (repeatable)")
    args = parser.parse_args()

    ratio_gates = []
    for spec in args.ratio:
        parts = spec.rsplit(":", 2)
        try:
            if len(parts) != 3:
                raise ValueError(spec)
            ratio_gates.append((parts[0], parts[1], float(parts[2])))
        except ValueError:
            print(f"error: bad --ratio spec {spec!r} (want A:B:MAX)",
                  file=sys.stderr)
            return 2

    if args.update:
        merge_baseline(args.current, args.baseline)
        return 0

    baseline = load_throughputs(args.baseline)
    current = load_throughputs(args.current)

    regressions = []
    print(f"{'benchmark':<45} {'baseline':>14} {'current':>14} {'ratio':>7}")
    for name in sorted(baseline):
        if name not in current:
            print(f"{name:<45} {baseline[name]:>14.3g} {'(missing)':>14}")
            continue
        ratio = current[name] / baseline[name]
        flag = ""
        if ratio < 1.0 - args.threshold:
            regressions.append((name, ratio))
            flag = "  <-- REGRESSION"
        print(f"{name:<45} {baseline[name]:>14.3g} {current[name]:>14.3g} "
              f"{ratio:>6.2f}x{flag}")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<45} {'(no baseline)':>14} {current[name]:>14.3g}")

    missing_required = [name for name in args.require if name not in current]
    for name in args.require:
        if name in current and name not in baseline:
            print(f"required {name} ran cleanly; no baseline row, so no "
                  f"speed gate")

    ratio_failures = []
    for num, den, max_slowdown in ratio_gates:
        if num not in current or den not in current:
            missing = num if num not in current else den
            ratio_failures.append(
                f"--ratio {num}:{den}: {missing} missing from current run")
            continue
        ratio = current[num] / current[den]
        verdict = "ok" if ratio >= 1.0 - max_slowdown else "FAIL"
        print(f"ratio {num} / {den} = {ratio:.3f} "
              f"(floor {1.0 - max_slowdown:.3f}) {verdict}")
        if ratio < 1.0 - max_slowdown:
            ratio_failures.append(
                f"{num} is {(1 - ratio):.1%} slower than {den} "
                f"(allowed {max_slowdown:.0%})")

    if regressions or missing_required or ratio_failures:
        if regressions:
            print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more "
                  f"than {args.threshold:.0%}:", file=sys.stderr)
            for name, ratio in regressions:
                print(f"  {name}: {ratio:.2f}x of baseline "
                      f"({(1 - ratio):.0%} slower)", file=sys.stderr)
        for name in missing_required:
            print(f"FAIL: required benchmark {name} missing from current run "
                  f"(errored out or filtered?)", file=sys.stderr)
        for message in ratio_failures:
            print(f"FAIL: {message}", file=sys.stderr)
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%} "
          f"({len(baseline)} gated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
