#!/usr/bin/env python3
"""Builds and runs pwbench, the open-loop PMU-fleet benchmark.

Usage, from any directory:

  python3 pwbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload in a fresh process. The last line of stdout is one
      JSON object with the keys correct, attempted, failed and metrics;
      the metrics are the end-to-end metrics of BENCHMARK.json with
      --trace 0 and its per-layer metrics with --trace 1.
  python3 pwbench/run.py --all [--trace 0|1] [--seed N] [--seconds S]
                         [--json PATH]
      Every workload, each in its own process. Prints every metric with
      its unit and writes the full run records to PATH (default
      .bench_build/pwbench_runs.json), the input of pwbench/compare.py.
  python3 pwbench/run.py --smoke
      Every workload at reduced sizing with 1 s windows, correctness
      gate on.

The first call configures and builds the package (pwbench/CMakeLists.txt)
into .bench_build/ at the repository root; later calls only rebuild what
changed. Exits non-zero, without printing a result, when the build or a
run fails; exits 1 after printing the result when the correctness gate
fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "pwbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"pwbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "pwbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "pwbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, metric lines, record).

    The record is the JSON object on the last line of its output."""
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"run printed no record (exit {proc.returncode}): {' '.join(args)}")
    return proc.returncode, lines[:-1], record


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def workload_args(workload, args):
    return (["--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)] + (["--traced"] if args.trace else []))


def run_one(args, bench):
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    code, lines, record = run_binary(workload_args(args.workload, args))
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        fail("run did not report " + ", ".join(missing))
    for line in lines:
        print(line)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in names},
    }
    print(json.dumps(result))
    return 0 if code == 0 and record["correct"] else 1


def run_all(args, bench):
    records, status = [], 0
    for workload in (w["name"] for w in bench["workloads"]):
        code, lines, record = run_binary(workload_args(workload, args))
        for line in lines:
            print(line)
        records.append(record)
        if code != 0 or not record["correct"]:
            status = 1
    path = Path(args.json) if args.json else BUILD_DIR / "pwbench_runs.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"runs": records}, f, indent=1)
    print(f"pwbench: {len(records)} run records written to {path}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="window length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args()
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    build()
    if args.smoke:
        code, lines, record = run_binary(["--smoke"])
        print("\n".join(lines + [json.dumps(record)]))
        return code
    if args.all:
        return run_all(args, bench)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
