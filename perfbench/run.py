#!/usr/bin/env python3
"""End-to-end benchmark of the incast simulator.

    python3 perfbench/run.py --workload parallel_fabric --seed 1 --seconds 45 --trace 0

Run from the repository root. The first run builds the driver
(perfbench/driver.cc, linked against ../src) into .bench_build, or into
$CARGO_TARGET_DIR when set; later runs only re-check the build. Build logs go
to stderr.

The driver times one workload and checks its outputs (see driver.cc); this
script reduces its raw samples to medians and prints, as the last stdout line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Exits non-zero, printing no result, when the build or the driver fails.
"""
import argparse
import json
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("parallel_fabric", "scaling_ladder")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/")
        return None
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return None
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "perfbench_driver")


def end_to_end(raw):
    # Simulated events per second of host time, the median over the run's
    # passes. Every pass of a run does identical work; across seeds the event
    # count moves a little (ECMP collisions, jitter), the rate barely.
    events_per_s = [e / s for s, e in zip(raw["plain_pass_s"], raw["plain_pass_events"])]
    return {
        "sim_events_per_s": (median(events_per_s), "1/s"),
        "setup_s": (median(raw["setup_s"]), "s"),
    }


def overhead_pct(with_layer, without_layer):
    """Median cost of a layer over adjacent pass pairs, in % of the pass without it.

    The driver runs the variants round-robin, so pair i ran back to back and
    saw the same machine load."""
    return median([(a / b - 1) * 100 for a, b in zip(with_layer, without_layer)])


def per_layer(raw):
    ns_per_event = [s / e * 1e9 for s, e in zip(raw["plain_pass_s"], raw["plain_pass_events"])]
    data = raw["hub_data_packets"]
    retx = raw["hub_retransmitted_packets"]
    plain_s = median(raw["plain_pass_s"])
    # Domain engine (0 on the single-queue workloads): speed-up of the run
    # across several domains over the plain one-domain pass, and the share
    # of the domains' thread time spent waiting at barriers.
    split = raw["split_domains"]
    speedup = stall_pct = 0.0
    if split:
        split_s = median(raw["split_pass_s"])
        speedup = plain_s / split_s
        stall_pct = raw["barrier_stall_ns"] * 1e-9 / (split * split_s) * 100
    return {
        "span_setup_ms": (median(raw["setup_s"]) * 1e3, "ms"),
        # Process peak RSS. Where domain worker threads run (parallel_fabric's
        # four-domain pass) it moves by a tenth from run to run, with
        # per-thread malloc arenas, too much for an end-to-end bound.
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "span_simulate_ms": (plain_s * 1e3, "ms"),
        "span_check_ms": (median(raw["plain_check_s"]) * 1e3, "ms"),
        "auditor_overhead_pct": (overhead_pct(raw["plain_pass_s"],
                                              raw["audit_off_pass_s"]), "%"),
        "hub_overhead_pct": (overhead_pct(raw["hub_point0_ms"],
                                          raw["plain_point0_ms"]), "%"),
        "sim_events": (raw["plain_pass_events"][0], "count"),
        "sim_ns_per_event": (median(ns_per_event), "ns"),
        "sim_peak_pending": (raw["hub_peak_pending"], "count"),
        "parallel_speedup": (speedup, "x"),
        "parallel_barrier_stall_pct": (stall_pct, "%"),
        "parallel_windows": (raw["windows"], "count"),
        "parallel_packets_bridged": (raw["packets_bridged"], "count"),
        "net_queue_drops": (raw["queue_drops"], "count"),
        "net_bottleneck_enqueued": (raw["hub_queue_enqueued"], "count"),
        "net_bottleneck_ecn_marks": (raw["hub_queue_ecn_marks"], "count"),
        "tcp_data_packets": (data, "count"),
        "tcp_retransmitted_packets": (retx, "count"),
        "tcp_rto_count": (raw["hub_rto_count"], "count"),
        "tcp_fast_retransmits": (raw["hub_fast_retransmits"], "count"),
        "tcp_useful_fraction": (1.0 - retx / data if data > 0 else 0.0, "fraction"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    driver = build()
    if driver is None:
        return 1
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"driver failed with exit code {proc.returncode}")
        return 1
    log(f"raw {lines[-1]}")
    raw = json.loads(lines[-1])

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
