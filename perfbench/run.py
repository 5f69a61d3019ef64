#!/usr/bin/env python3
"""End-to-end sweep benchmark for the pcm simulator.

Builds the perfbench runner (a standalone CMake project over ../src) into
.bench_build/ at the repo root, runs one workload's figure sweep through
exec::run_sweep, checks its outputs, and prints one JSON object as the last
line of stdout:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (sweep_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer split from a traced run.
See NOTES.md for the workloads, the metrics and what each one can move.

  python3 perfbench/run.py --workload sort_gcel --seed 7 --seconds 12 --trace 0
  python3 perfbench/run.py --workload all            # every workload, untraced
  python3 perfbench/run.py --workload matmul_cm5 --write-reference

Any failed check (a cell that threw, wrong output, simulated µs or Table-1
parameters that differ from reference/<workload>.json) makes the run exit 1.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference")


def load_spec():
    """Workload names and metric units, as BENCHMARK.json declares them."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        log("perfbench: no", path)
        sys.exit(2)
    with open(path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return workloads, end_to_end, per_layer


RUNNER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the runner; exit 2 if that is impossible."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at", os.path.join(ROOT, "src"))
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            sys.exit(2)


def drive(workload, seed, seconds, trace):
    """Run the perfbench binary once; return its JSON record (exit 1 if it fails)."""
    cmd = [BINARY, "--workload", workload, "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: runner exceeded", RUNNER_TIMEOUT_S, "s")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr)
        log("perfbench: runner exited with", proc.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def same_bits(a, b):
    try:
        return float.fromhex(a).hex() == float.fromhex(b).hex()
    except (TypeError, ValueError):
        return False


def check_reference(rec):
    """Failures against reference/<workload>.json, as diagnostic strings."""
    path = os.path.join(REFERENCE, rec["workload"] + ".json")
    with open(path) as f:
        ref = json.load(f)
    errors = []
    if ref["seed"] != rec["default_seed"]:
        errors.append("reference recorded at seed %s, workload default is %s"
                      % (ref["seed"], rec["default_seed"]))
    for x, want in ref["cells"].items():
        got = rec["cells"].get(x)
        if not same_bits(want, got):
            errors.append("cell x=%s: simulated %s us, reference %s"
                          % (x, got, want))
    for key, want in ref["params"].items():
        got = rec["params"].get(key)
        if got != want and not same_bits(want, got):
            errors.append("Table-1 %s: calibrated %s, reference %s"
                          % (key, got, want))
    return errors


def digest(cells):
    text = ";".join("%s=%s" % kv for kv in sorted(cells.items(),
                                                  key=lambda kv: float(kv[0])))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, units):
    """One workload: the result object and the human-readable lines."""
    rec = drive(workload, seed, seconds, trace)
    ref_errors = check_reference(rec)
    attempted = rec["attempted"]
    failed = rec["failed"] + len(ref_errors)
    for e in rec["errors"] + ref_errors:
        log("FAILED", workload + ":", e)
    sweeps = rec["sweep_s"]
    notes = [
        "workload %s seed %d: sim-us digest %s (cells %s)" % (
            workload, rec["seed"], digest(rec["cells"]),
            ", ".join("%s=%s" % kv for kv in rec["cells"].items())),
        "  sweep_s median %.4f s over %d sweeps (min %.4f, max %.4f); "
        "setup_s median of %d; fail_frac %d/%d = %g" % (
            statistics.median(sweeps), len(sweeps), min(sweeps), max(sweeps),
            len(rec["setup_s"]), failed, attempted, failed / attempted),
    ]
    if trace:
        values = rec["layers"]
    else:
        values = {"sweep_s": statistics.median(sweeps),
                  "setup_s": statistics.median(rec["setup_s"]),
                  "peak_rss_mb": rec["peak_rss_mb"]}
    missing = sorted(set(units) - set(values))
    if missing:
        log("perfbench: runner reported no", ", ".join(missing))
        sys.exit(1)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for name, m in metrics.items():
        notes.append("  %-24s %.6g %s" % (name, m["value"], m["unit"]))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, notes


def write_reference(workload):
    rec = drive(workload, None, 0.1, False)
    if rec["failed"]:
        for e in rec["errors"]:
            log("FAILED", workload + ":", e)
        sys.exit(1)
    os.makedirs(REFERENCE, exist_ok=True)
    path = os.path.join(REFERENCE, workload + ".json")
    with open(path, "w") as f:
        json.dump({"seed": rec["default_seed"], "cells": rec["cells"],
                   "params": rec["params"]}, f, indent=2)
        f.write("\n")
    log("wrote", path)


def main():
    workloads, end_to_end, per_layer = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the figure bench's seed)")
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="minimum timed seconds per run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record default-seed simulated us and Table-1 "
                         "parameters as the new reference")
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    names = workloads if args.workload == "all" else [args.workload]
    if args.write_reference:
        for name in names:
            write_reference(name)
        return 0

    results = {}
    for name in names:
        result, notes = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace),
                                     per_layer if args.trace else end_to_end)
        print("\n".join(notes), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s:%s" % (n, k): v
                             for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
