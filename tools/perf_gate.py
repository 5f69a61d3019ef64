#!/usr/bin/env python3
"""Perf gate: compare a google-benchmark JSON run against BENCH_hotloop.json.

BENCH_hotloop.json is the checked-in speedup trajectory of the simulator
hot loop: for every tracked benchmark it records the pre-optimisation
baseline and the post-optimisation time on the machine that produced them.
CI re-runs the benchmarks and fails when any tracked benchmark regresses
more than --tolerance (default 10%) against its checked-in `post_ns`,
scale-corrected through a reference benchmark so absolute machine speed
cancels out. A run with --benchmark_repetitions=K holds K samples per
benchmark; the gate compares their median, so one noisy sample (of the
reference above all) cannot decide the verdict.

Usage:
  tools/perf_gate.py --baseline BENCH_hotloop.json --run current.json
  tools/perf_gate.py ... --reference BM_RadixSort/4096 --tolerance 0.10

Exit code 0 = within tolerance, 1 = regression, 2 = bad input.
"""

import argparse
import json
import statistics
import sys


def load_run(path):
    """name -> median real_time (ns) over that name's repetitions."""
    with open(path) as f:
        data = json.load(f)
    samples = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            print(f"perf_gate: unknown time_unit '{unit}' in {path}",
                  file=sys.stderr)
            sys.exit(2)
        samples.setdefault(b["name"], []).append(b["real_time"] * scale)
    return {name: statistics.median(ts) for name, ts in samples.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="checked-in BENCH_hotloop.json")
    ap.add_argument("--run", required=True,
                    help="google-benchmark JSON output of the current build")
    ap.add_argument("--reference", default="BM_RadixSort/4096",
                    help="benchmark used to normalise machine speed; its "
                    "workload is untouched by simulator-core changes")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional regression (default 0.10)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    tracked = baseline.get("benchmarks", {})
    if not tracked:
        print("perf_gate: baseline has no 'benchmarks' table", file=sys.stderr)
        return 2
    run = load_run(args.run)

    # Normalise: the checked-in numbers came from a different machine. The
    # reference benchmark's ratio between that machine and this one rescales
    # every expectation; a genuine hot-loop regression shifts tracked
    # benchmarks relative to the reference and still trips the gate.
    ref_base = tracked.get(args.reference, {}).get("post_ns")
    ref_now = run.get(args.reference)
    if not ref_base or not ref_now:
        print(f"perf_gate: reference '{args.reference}' missing from "
              "baseline or run", file=sys.stderr)
        return 2
    speed = ref_now / ref_base

    failures = []
    print(f"{'benchmark':46} {'expected ns':>14} {'actual ns':>14} {'ratio':>7}")
    for name, rec in sorted(tracked.items()):
        if name == args.reference:
            continue
        expected = rec["post_ns"] * speed
        actual = run.get(name)
        if actual is None:
            failures.append(f"{name}: missing from the current run")
            continue
        ratio = actual / expected
        flag = " REGRESSION" if ratio > 1.0 + args.tolerance else ""
        print(f"{name:46} {expected:14.1f} {actual:14.1f} {ratio:7.2f}{flag}")
        if flag:
            failures.append(
                f"{name}: {actual:.0f} ns vs expected {expected:.0f} ns "
                f"({100 * (ratio - 1):.1f}% over, tolerance "
                f"{100 * args.tolerance:.0f}%)")

    if failures:
        print("\nperf_gate: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
