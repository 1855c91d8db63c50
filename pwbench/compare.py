#!/usr/bin/env python3
"""Compares two sets of pwbench runs under the bounds in BENCHMARK.json.

  python3 pwbench/compare.py --a A1.json A2.json ... --b B1.json B2.json ...
  python3 pwbench/compare.py --self-test

Each file holds {"runs": [record, ...]} as written by run.py --all. For
every (workload, end-to-end metric) the report gives each side's median
and quartiles, B's change against A, and a verdict:

  within      B's median is not worse than A's by more than the bound
  regressed   B's median is worse than A's by more than the bound
  unresolved  either side's quartile spread, as a share of its median,
              is wider than the bound, and B does not read better than A
              on every run

Runs of a workload with the same seed and window must also repeat the
deterministic counts exactly (DETERMINISTIC below).

Exit status: 0 when every pair is within its bound and the counts repeat,
1 on a regression or a count that differs, 2 when some pair is only
unresolved. Standard library only.
"""

import argparse
import io
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Counts the program makes that depend only on the inputs. The proximity
# cache size stands in for regressor builds: shards that miss the same
# key at once each build it, so the build count varies run to run while
# the set of cached regressors does not.
DETERMINISTIC = ("detector.allocs_per_detect", "proximity.cache_size",
                 "session.alarms_raised")


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            runs.extend(json.load(f)["runs"])
    return runs


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a, b, better, bound):
    """Returns (verdict, B's relative change, positive = worse)."""
    a_median, b_median = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    if a_median:
        worse = sign * (b_median - a_median) / a_median
    else:
        worse = 0.0 if b_median == a_median else sign * float("inf")
    b_always_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if max(spread(a), spread(b)) > bound and not b_always_better:
        return "unresolved", worse
    return ("regressed" if worse > bound else "within"), worse


def values_of(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["metrics"]]


def compare(bench, a_runs, b_runs):
    """Yields (workload, metric, a values, b values, verdict, change)."""
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            a = values_of(a_runs, workload, metric["name"])
            b = values_of(b_runs, workload, metric["name"])
            if not a or not b:
                yield workload, metric["name"], a, b, "missing", 0.0
                continue
            v, change = verdict(a, b, metric["better"], metric["bound"])
            yield workload, metric["name"], a, b, v, change


def count_mismatches(runs):
    """Deterministic counts that differ between runs of one input."""
    groups = {}
    for r in runs:
        key = (r["workload"], r["seed"], r["seconds"])
        groups.setdefault(key, []).append(r)
    problems = []
    for (workload, seed, seconds), group in sorted(groups.items()):
        for name in DETERMINISTIC:
            seen = sorted({r["metrics"][name]["value"] for r in group
                           if name in r["metrics"]})
            if len(seen) > 1:
                problems.append(f"{workload} seed {seed} ({seconds} s): "
                                f"{name} differs across runs: {seen}")
    return problems


def report(bench, a_runs, b_runs, out=sys.stdout):
    verdicts = []
    print(f"{'workload':<18} {'metric':<15} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict", file=out)
    for workload, metric, a, b, v, change in compare(bench, a_runs, b_runs):
        cells = []
        for values in (a, b):
            if values:
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            else:
                cells.append("-")
        print(f"{workload:<18} {metric:<15} {cells[0]:>32} {cells[1]:>32} "
              f"{100 * change:+7.2f}%  {v}", file=out)
        verdicts.append(v)
    problems = count_mismatches(a_runs + b_runs)
    for problem in problems:
        print("count mismatch: " + problem, file=out)
    if not problems:
        print(f"deterministic counts ({', '.join(DETERMINISTIC)}) repeat "
              "on every input", file=out)
    if problems or any(v in ("regressed", "missing") for v in verdicts):
        return 1
    return 2 if "unresolved" in verdicts else 0


def self_test():
    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
            {"name": "fps", "unit": "1/s", "better": "higher", "bound": 0.1},
        ],
    }

    def run(lat, fps, seed=1, alarms=5):
        metrics = {"lat": lat, "fps": fps, "session.alarms_raised": alarms,
                   "proximity.cache_size": 7, "detector.allocs_per_detect": 2.5}
        return {"workload": "w", "seed": seed, "seconds": 10,
                "metrics": {k: {"value": v} for k, v in metrics.items()}}

    base = [run(100, 1000), run(101, 1010), run(99, 990)]
    assert verdict([100, 101, 99], [104, 105, 103], "lower", 0.1)[0] == "within"
    assert verdict([100, 101, 99], [120, 121, 119], "lower", 0.1)[0] == "regressed"
    assert verdict([1000, 1010, 990], [850, 860, 840], "higher", 0.1)[0] == "regressed"
    assert verdict([1000, 1010, 990], [1200, 1190, 1210], "higher", 0.1)[0] == "within"
    assert verdict([100, 150, 60, 130], [100, 101, 99], "lower", 0.1)[0] == "unresolved"
    # A wide spread is resolved when every B run beats every A run.
    assert verdict([100, 150, 60, 130], [40, 41, 39], "lower", 0.1)[0] == "within"
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)

    sink = io.StringIO()
    assert report(bench, base, [run(102, 1005), run(100, 1000)], sink) == 0
    assert report(bench, base, [run(130, 1000), run(131, 1000)], sink) == 1
    assert report(bench, base, [run(100, 1000, alarms=6)], sink) == 1
    # Different seeds are different inputs: their counts may differ.
    assert report(bench, base, [run(100, 1000, seed=2, alarms=6)], sink) == 0
    wide = [run(60, 1000), run(100, 1000), run(150, 1000), run(130, 1000)]
    assert report(bench, base, wide, sink) == 2
    print("compare.py self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", nargs="+", help="baseline run files")
    parser.add_argument("--b", nargs="+", help="candidate run files")
    parser.add_argument("--benchmark", default=str(BENCHMARK))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.a or not args.b:
        parser.error("--a and --b each need at least one run file")
    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    return report(bench, load_runs(args.a), load_runs(args.b))


if __name__ == "__main__":
    sys.exit(main())
