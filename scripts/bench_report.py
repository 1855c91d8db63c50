#!/usr/bin/env python3
"""Validate and compare pw-bench-report documents (BENCH_<name>.json).

The C++ side (obs/report.h RunReportBuilder, surfaced as `--json PATH`
on every bench harness) emits one JSON document per run: named numeric
results plus the metrics-registry snapshot and build provenance. This
tool is the other half of the perf-trajectory loop:

  bench_report.py validate FILE...          schema-check documents
  bench_report.py diff BASE NEW             compare two runs; exit 1 on
      [--threshold T] [--results-only]      any regression beyond T
      [--only REGEX]                        (default 0.20 = 20%); --only
                                            keeps the keys REGEX matches
  bench_report.py --self-test               in-memory fixture round trip

Regression direction is inferred from the key: results whose dotted
path contains an `IA`, `accuracy`, or `frames_per_sec` component are
higher-is-better; everything else (latencies, allocs, FA rates) is
lower-is-better. Keys
present on only one side are reported but never gate — adding a
benchmark must not fail the lane that adds it.

Keys that depend only on the code, not the machine (allocs/op and
regressor builds per op), are gated exactly: `diff BASE NEW --only
'(allocs|builds)_per_op$' --threshold 0` fails on any rise, including
one from a zero baseline.

The perf harnesses record their sizing in the `run.quick` result (1 for
`--quick`, 0 for a full run) and the `run.repetitions` result (how many
times each benchmark row was measured; a row's value is the median of
its repetitions). A report with `run.quick` but no `run.repetitions`
measured each row once. A diff between reports of different sizings
compares neither timing keys (`*_us`, `*_ms`, `*_s`) nor registry
quantiles, whose values follow the benchmark mix; every other key,
allocs/op included, is still compared. A report without `run.quick`
(older baselines, the figure harnesses) has an unknown sizing and is
compared in full.

Only pw-bench-report-v2 validates; v1 documents (with their bucketed
`histograms` section) are rejected. A quantile entry with count > 0 must
report its stats in order (min <= p50 <= p90 <= p99 <= p999 <= max,
over the stats present).

Stdlib only; no third-party imports.
"""

import argparse
import json
import re
import sys

SCHEMA = "pw-bench-report-v2"

# Quantile stats that must be non-decreasing, in this order.
QUANTILE_ORDER = ("min", "p50", "p90", "p99", "p999", "max")

# Top-level key -> required python type.
TOP_LEVEL = {
    "schema": str,
    "name": str,
    "created_unix": int,
    "git_sha": str,
    "build": dict,
    "host": dict,
    "results": dict,
    "counters": dict,
    "gauges": dict,
    "quantiles": dict,
}

HIGHER_IS_BETTER_PARTS = ("IA", "accuracy", "frames_per_sec",
                          "set_precision", "set_recall")

# Result keys holding a perf report's sizing (bench/perf_common.h).
SIZING_KEY = "run.quick"
REPETITIONS_KEY = "run.repetitions"

# Comparable keys whose values depend on the run's sizing.
SIZED_KEY_RE = re.compile(r"^quantiles\.|_(us|ms|s)$")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def validate_doc(doc, label):
    """Returns a list of schema-violation strings (empty = valid)."""
    errors = []
    if not isinstance(doc, dict):
        return ["%s: document is not a JSON object" % label]
    for key, want in TOP_LEVEL.items():
        if key not in doc:
            errors.append("%s: missing top-level key %r" % (label, key))
        elif not isinstance(doc[key], want):
            errors.append("%s: key %r is %s, want %s" %
                          (label, key, type(doc[key]).__name__, want.__name__))
    if errors:
        return errors
    if doc["schema"] != SCHEMA:
        errors.append("%s: schema is %r, want %r" %
                      (label, doc["schema"], SCHEMA))
    for key, entry in doc["results"].items():
        if not isinstance(entry, dict) or "value" not in entry:
            errors.append("%s: results[%r] has no value" % (label, key))
        elif not isinstance(entry["value"], (int, float)):
            errors.append("%s: results[%r].value is not numeric" %
                          (label, key))
        elif "unit" in entry and not isinstance(entry["unit"], str):
            errors.append("%s: results[%r].unit is not a string" %
                          (label, key))
    for key, value in doc["counters"].items():
        if not isinstance(value, int):
            errors.append("%s: counters[%r] is not an integer" % (label, key))
    for key, value in doc["gauges"].items():
        if not isinstance(value, (int, float)):
            errors.append("%s: gauges[%r] is not numeric" % (label, key))
    for key, snap in doc["quantiles"].items():
        if not isinstance(snap, dict) or "count" not in snap:
            errors.append("%s: quantiles[%r] has no count" % (label, key))
        elif snap["count"] > 0:
            errors.extend(quantile_order_errors(snap, "%s: quantiles[%r]" %
                                                (label, key)))
    return errors


def quantile_order_errors(snap, label):
    """Out-of-order stats of one quantile entry (see QUANTILE_ORDER)."""
    present = [(stat, snap[stat]) for stat in QUANTILE_ORDER if stat in snap]
    errors = []
    for (lo_name, lo), (hi_name, hi) in zip(present, present[1:]):
        if not (isinstance(lo, (int, float)) and isinstance(hi, (int, float))):
            errors.append("%s: %s/%s is not numeric" %
                          (label, lo_name, hi_name))
        elif lo > hi:
            errors.append("%s: %s %g > %s %g" %
                          (label, lo_name, lo, hi_name, hi))
    return errors


def higher_is_better(key):
    return any(part in HIGHER_IS_BETTER_PARTS for part in key.split("."))


def sizing(doc):
    """'quick xN' or 'full xN' (N repetitions per row), or None when the
    report does not record it."""
    entry = doc["results"].get(SIZING_KEY)
    if entry is None:
        return None
    reps = doc["results"].get(REPETITIONS_KEY, {"value": 1})["value"]
    return "%s x%d" % ("quick" if entry["value"] else "full", reps)


def flatten(doc, results_only):
    """Comparable key -> value map for a report document."""
    flat = {}
    for key, entry in doc["results"].items():
        if key in (SIZING_KEY, REPETITIONS_KEY):
            continue
        flat["results." + key] = float(entry["value"])
    if results_only:
        return flat
    for key, snap in doc["quantiles"].items():
        for stat in ("p50", "p99", "p999"):
            if stat in snap and snap.get("count", 0) > 0:
                flat["quantiles.%s.%s" % (key, stat)] = float(snap[stat])
    return flat


def diff_docs(base, new, threshold, results_only, only=None):
    """Returns (report_lines, regressions). Gate on regressions != [].

    `only`, a regex, keeps the keys it matches (re.search)."""
    base_flat = flatten(base, results_only)
    new_flat = flatten(new, results_only)
    lines = []
    regressions = []
    base_sizing, new_sizing = sizing(base), sizing(new)
    if base_sizing and new_sizing and base_sizing != new_sizing:
        # Timings and quantiles of differently sized runs measure
        # different benchmark mixes; only sizing-free keys compare.
        lines.append("  sizing differs (%s -> %s): timing and quantile "
                     "keys not compared" % (base_sizing, new_sizing))
        base_flat = {k: v for k, v in base_flat.items()
                     if not SIZED_KEY_RE.search(k)}
        new_flat = {k: v for k, v in new_flat.items()
                    if not SIZED_KEY_RE.search(k)}
    if only is not None:
        keep = re.compile(only)
        base_flat = {k: v for k, v in base_flat.items() if keep.search(k)}
        new_flat = {k: v for k, v in new_flat.items() if keep.search(k)}
    for key in sorted(set(base_flat) | set(new_flat)):
        if key not in base_flat:
            lines.append("  + %-60s (new key)" % key)
            continue
        if key not in new_flat:
            lines.append("  - %-60s (removed)" % key)
            continue
        b, n = base_flat[key], new_flat[key]
        if b == 0.0:
            # No relative baseline; report absolute movement only, which
            # gates only an exact (zero-threshold) comparison.
            worse = (n < b) if higher_is_better(key) else (n > b)
            regressed = threshold == 0.0 and worse
            if n != b:
                lines.append("  %s %-60s %g -> %g (no relative baseline) %s" %
                             ("!" if regressed else "~", key, b, n,
                              "REGRESSION" if regressed else ""))
            if regressed:
                regressions.append(key)
            continue
        rel = (n - b) / abs(b)
        direction = "higher-is-better" if higher_is_better(key) \
            else "lower-is-better"
        regressed = (rel < -threshold) if higher_is_better(key) \
            else (rel > threshold)
        marker = "REGRESSION" if regressed else ""
        if regressed or abs(rel) > threshold / 2:
            lines.append("  %s %-58s %12.4g -> %-12.4g %+7.1f%% (%s) %s" %
                         ("!" if regressed else "~", key, b, n, rel * 100.0,
                          direction, marker))
        if regressed:
            regressions.append(key)
    return lines, regressions


def cmd_validate(paths):
    status = 0
    for path in paths:
        try:
            doc = load(path)
        except (OSError, ValueError) as err:
            print("%s: unreadable: %s" % (path, err), file=sys.stderr)
            status = 1
            continue
        errors = validate_doc(doc, path)
        if errors:
            for err in errors:
                print(err, file=sys.stderr)
            status = 1
        else:
            print("%s: OK (%s, %d results, git %s)" %
                  (path, doc["name"], len(doc["results"]), doc["git_sha"]))
    return status


def cmd_diff(base_path, new_path, threshold, results_only, only):
    try:
        base, new = load(base_path), load(new_path)
    except (OSError, ValueError) as err:
        print("diff: unreadable input: %s" % err, file=sys.stderr)
        return 1
    errors = validate_doc(base, base_path) + validate_doc(new, new_path)
    if errors:
        for err in errors:
            print(err, file=sys.stderr)
        return 1
    lines, regressions = diff_docs(base, new, threshold, results_only, only)
    print("diff %s (git %s) -> %s (git %s), threshold %.0f%%%s:" %
          (base_path, base["git_sha"], new_path, new["git_sha"],
           threshold * 100.0, "" if only is None else ", keys /%s/" % only))
    for line in lines:
        print(line)
    if regressions:
        print("%d regression(s) beyond %.0f%%" %
              (len(regressions), threshold * 100.0), file=sys.stderr)
        return 1
    print("no regressions beyond %.0f%%" % (threshold * 100.0))
    return 0


def _fixture(p99_14, ia_14=0.9, fps=20000.0, set_recall=0.9, allocs=4,
             idle_allocs=0, quick=None, repetitions=None, builds=3.5):
    """Minimal valid document with latency, accuracy, throughput,
    allocation and build counts; `quick` (0 or 1) records a sizing and
    `repetitions` the measurements per row."""
    doc = {
        "schema": SCHEMA,
        "name": "selftest",
        "created_unix": 1700000000,
        "git_sha": "deadbee",
        "build": {"compiler": "cc", "obs_disabled": False, "type": "Release"},
        "host": {"arch": "x86_64", "cpus": 1, "os": "Linux"},
        "results": {
            "detect.ieee14.p99_us": {"unit": "us", "value": p99_14},
            "fig5.ieee14.subspace.IA": {"unit": "", "value": ia_14},
            "fleet.frames_per_sec": {"unit": "", "value": fps},
            "cascade.ieee14.double_trip.second_trip.set_precision":
                {"unit": "", "value": 0.95},
            "cascade.ieee14.double_trip.second_trip.set_recall":
                {"unit": "", "value": set_recall},
            "BM_DetectSteadyState.14.allocs_per_op":
                {"unit": "", "value": allocs},
            "BM_DetectSteadyState.14.alloc_bytes_per_op":
                {"unit": "", "value": 38.0 * allocs},
            "BM_Idle.allocs_per_op": {"unit": "", "value": idle_allocs},
            "BM_TrainMulti.30.builds_per_op": {"unit": "", "value": builds},
        },
        "counters": {"stream.samples": 100},
        "gauges": {"stream.alarm_active": 0.0},
        "quantiles": {
            "stream.frame_us":
                {"count": 100, "p50": 40.0, "p99": p99_14, "p999": p99_14},
        },
    }
    if quick is not None:
        doc["results"][SIZING_KEY] = {"unit": "", "value": quick}
    if repetitions is not None:
        doc["results"][REPETITIONS_KEY] = {"unit": "", "value": repetitions}
    return doc


def self_test():
    checks = []

    def check(name, ok):
        checks.append((name, ok))
        print("  %-52s %s" % (name, "ok" if ok else "FAIL"))

    base = _fixture(100.0)
    check("valid fixture passes validation",
          validate_doc(base, "base") == [])
    broken = _fixture(100.0)
    del broken["schema"]
    check("missing schema key is rejected",
          validate_doc(broken, "broken") != [])
    mistyped = _fixture(100.0)
    mistyped["results"]["detect.ieee14.p99_us"]["value"] = "fast"
    check("non-numeric result value is rejected",
          validate_doc(mistyped, "mistyped") != [])
    v1 = _fixture(100.0)
    v1["schema"] = "pw-bench-report-v1"
    v1["histograms"] = {"detect.total_us": {"count": 100, "p50": 50.0}}
    check("v1 document is rejected", validate_doc(v1, "v1") != [])
    unordered = _fixture(100.0)
    unordered["quantiles"]["powerflow.ac.iterations"] = {
        "count": 10, "min": 4.0, "p50": 3.51, "p90": 4.0, "max": 5.0}
    check("quantile p50 below min is rejected",
          validate_doc(unordered, "unordered") != [])

    _, regs = diff_docs(base, _fixture(100.0), 0.20, False)
    check("identical runs show no regression", regs == [])
    _, regs = diff_docs(base, _fixture(130.0), 0.20, False)
    check("30% p99 latency growth gates at 20%",
          "results.detect.ieee14.p99_us" in regs)
    _, regs = diff_docs(base, _fixture(70.0), 0.20, False)
    check("30% p99 latency drop is an improvement", regs == [])
    _, regs = diff_docs(base, _fixture(100.0, ia_14=0.6), 0.20, False)
    check("IA drop gates as higher-is-better",
          "results.fig5.ieee14.subspace.IA" in regs)
    _, regs = diff_docs(base, _fixture(100.0, ia_14=0.99), 0.20, False)
    check("IA gain is an improvement", regs == [])
    _, regs = diff_docs(base, _fixture(100.0, fps=12000.0), 0.20, False)
    check("throughput drop gates as higher-is-better",
          "results.fleet.frames_per_sec" in regs)
    _, regs = diff_docs(base, _fixture(100.0, fps=30000.0), 0.20, False)
    check("throughput gain is an improvement", regs == [])
    _, regs = diff_docs(base, _fixture(100.0, set_recall=0.5), 0.20, False)
    check("cascade set recall drop gates as higher-is-better",
          "results.cascade.ieee14.double_trip.second_trip.set_recall"
          in regs)
    _, regs = diff_docs(base, _fixture(100.0, set_recall=1.0), 0.20, False)
    check("cascade set recall gain is an improvement", regs == [])

    allocs = r"allocs_per_op$"
    _, regs = diff_docs(base, _fixture(100.0), 0.0, False, allocs)
    check("--only: equal allocs/op pass at threshold 0", regs == [])
    _, regs = diff_docs(base, _fixture(100.0, allocs=5), 0.0, False, allocs)
    check("--only: one more alloc/op gates at threshold 0",
          regs == ["results.BM_DetectSteadyState.14.allocs_per_op"])
    _, regs = diff_docs(base, _fixture(100.0, allocs=3), 0.0, False, allocs)
    check("--only: fewer allocs/op is an improvement", regs == [])
    _, regs = diff_docs(base, _fixture(100.0, idle_allocs=1), 0.0, False,
                        allocs)
    check("--only: a rise from zero allocs/op gates at threshold 0",
          regs == ["results.BM_Idle.allocs_per_op"])
    lines, regs = diff_docs(base, _fixture(500.0, ia_14=0.1), 0.0, False,
                            allocs)
    check("--only: keys outside the filter never gate",
          regs == [] and lines == [])

    full, quick = _fixture(100.0, quick=0), _fixture(100.0, quick=1)
    lines, regs = diff_docs(full, _fixture(1000.0, quick=1), 0.20, False)
    check("sizing: timings across sizings are not compared",
          regs == [] and not any("p99_us" in line or "frame_us" in line
                                 for line in lines))
    lines, regs = diff_docs(full, _fixture(100.0, allocs=5, quick=1), 0.0,
                            False, allocs)
    check("sizing: allocs/op across sizings still gates",
          regs == ["results.BM_DetectSteadyState.14.allocs_per_op"])
    _, regs = diff_docs(quick, _fixture(130.0, quick=1), 0.20, False)
    check("sizing: one sizing compares timings",
          "results.detect.ieee14.p99_us" in regs)
    _, regs = diff_docs(full, _fixture(130.0), 0.20, False)
    check("sizing: an unrecorded side compares timings",
          "results.detect.ieee14.p99_us" in regs)
    _, regs = diff_docs(full, quick, 0.0, False)
    check("sizing: the sizing key itself never gates", regs == [])

    quick3 = _fixture(100.0, quick=1, repetitions=3)
    lines, regs = diff_docs(quick, _fixture(1000.0, quick=1, repetitions=3),
                            0.20, False)
    check("repetitions: timings across repetition counts not compared",
          regs == [] and any("quick x1 -> quick x3" in line
                             for line in lines))
    _, regs = diff_docs(_fixture(100.0, quick=1, repetitions=1),
                        _fixture(1000.0, quick=1), 0.20, False)
    check("repetitions: an unrecorded count is one repetition",
          "results.detect.ieee14.p99_us" in regs)
    _, regs = diff_docs(quick3, _fixture(130.0, quick=1, repetitions=3),
                        0.20, False)
    check("repetitions: equal counts compare timings",
          "results.detect.ieee14.p99_us" in regs)
    _, regs = diff_docs(quick, quick3, 0.0, False)
    check("repetitions: the repetitions key itself never gates",
          regs == [])
    gate = r"(allocs|builds)_per_op$"
    _, regs = diff_docs(quick, _fixture(100.0, quick=1, repetitions=3,
                                        allocs=5), 0.0, False, gate)
    check("repetitions: allocs/op across counts still gates",
          regs == ["results.BM_DetectSteadyState.14.allocs_per_op"])
    _, regs = diff_docs(quick3, _fixture(100.0, quick=1, repetitions=3,
                                         builds=3.6), 0.0, False, gate)
    check("--only: a rise in builds/op gates at threshold 0",
          regs == ["results.BM_TrainMulti.30.builds_per_op"])
    _, regs = diff_docs(quick3, _fixture(100.0, quick=1, repetitions=3,
                                         builds=3.4), 0.0, False, gate)
    check("--only: fewer builds/op is an improvement", regs == [])

    failed = [name for name, ok in checks if not ok]
    if failed:
        print("self-test: %d check(s) failed" % len(failed), file=sys.stderr)
        return 1
    print("self-test: %d checks passed" % len(checks))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="bench_report.py",
        description="Validate and compare pw-bench-report-v2 documents.")
    parser.add_argument("--self-test", action="store_true",
                        help="run the in-memory fixture checks and exit")
    sub = parser.add_subparsers(dest="command")
    p_validate = sub.add_parser("validate", help="schema-check documents")
    p_validate.add_argument("files", nargs="+")
    p_diff = sub.add_parser("diff", help="compare two runs")
    p_diff.add_argument("base")
    p_diff.add_argument("new")
    p_diff.add_argument("--threshold", type=float, default=0.20,
                        help="relative regression gate (default 0.20)")
    p_diff.add_argument("--results-only", action="store_true",
                        help="compare only the results section (skip the "
                             "registry quantiles, which include training "
                             "and dataset-build noise)")
    p_diff.add_argument("--only", metavar="REGEX",
                        help="compare only the keys the regex matches "
                             "(re.search over e.g. "
                             "'results.BM_DetectSteadyState.14."
                             "allocs_per_op')")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.command == "validate":
        return cmd_validate(args.files)
    if args.command == "diff":
        return cmd_diff(args.base, args.new, args.threshold,
                        args.results_only, args.only)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
