#!/usr/bin/env python3
"""Checks check_bench_regression.py's --require rule on small fixture runs.

    check_bench_regression_test.py [path/to/check_bench_regression.py]

A required bench must be in the current run: missing or errored there, it
fails the gate. With no baseline row it is reported and passes. Exits 0 when
every case behaves, 1 otherwise.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, "check_bench_regression.py")


def bench(name, items=1e6, error=False):
    row = {"name": name, "run_type": "iteration", "items_per_second": items}
    if error:
        row["error_occurred"] = True
        row["error_message"] = "steady-state dispatch allocated on the heap"
    return row


def gate(tmp, baseline, current, *flags):
    """Runs the gate on two runs' rows; returns (exit code, output)."""
    paths = []
    for label, rows in (("baseline", baseline), ("current", current)):
        path = os.path.join(tmp, label + ".json")
        with open(path, "w") as f:
            json.dump({"benchmarks": rows}, f)
        paths.append(path)
    proc = subprocess.run([sys.executable, GATE, "--baseline", paths[0], "--current", paths[1],
                           *flags], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def main():
    baseline = [bench("BM_Old")]
    cases = [
        # (what, current rows, flags, expected exit code)
        ("required, in the current run, no baseline row",
         [bench("BM_Old"), bench("BM_New")], ["--require", "BM_New"], 0),
        ("required, in both runs",
         [bench("BM_Old"), bench("BM_New")], ["--require", "BM_Old"], 0),
        ("required, missing from the current run",
         [bench("BM_Old")], ["--require", "BM_New"], 1),
        ("required, errored in the current run",
         [bench("BM_Old"), bench("BM_New", error=True)], ["--require", "BM_New"], 1),
        ("required, baseline row, missing from the current run",
         [bench("BM_New")], ["--require", "BM_Old"], 1),
        ("not required, regressed past the threshold",
         [bench("BM_Old", items=1e5)], [], 1),
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for what, current, flags, want in cases:
            code, out = gate(tmp, baseline, current, *flags)
            verdict = "ok" if code == want else "FAIL"
            print(f"{verdict}: {what}: exit {code}, want {want}")
            if code != want:
                failed += 1
                print(out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
