#!/bin/sh
# Developer pre-submit check: static analysis, configure, build, run the
# full test suite, smoke the examples and quick-mode figure harnesses,
# validate the structured event log, and verify the obs-disabled
# configuration.
set -e
cd "$(dirname "$0")/.."

# Lanes that need an optional toolchain (clang-tidy, clang++) skip
# LOUDLY: the skip is echoed at the lane and repeated in the summary at
# the bottom, so "all checks passed" can never silently mean "the
# analysis never ran".
SKIPPED_LANES=""
skip_lane() {
  echo "=== $1: SKIPPED ($2) ==="
  SKIPPED_LANES="${SKIPPED_LANES}  - $1: SKIPPED ($2)\n"
}

# No generator is forced here: `build` may already exist from the plain
# `cmake -B build -S .` configure (Unix Makefiles), and CMake refuses to
# switch the generator of an existing build directory. Warnings are
# errors in this main build.
cmake -B build -S . -DPHASORWATCH_WERROR=ON
cmake --build build

# Static-analysis gate (see docs/STATIC_ANALYSIS.md): the project
# invariant linter must stay clean and must still catch its own seeded
# fixture violations; clang-tidy and clang-format run when installed
# (their runners skip loudly otherwise) and fail on any finding
# not in their checked-in baselines.
echo "=== tidy (pw-lint + clang-tidy + format) ==="
python3 tools/pw_lint.py --self-test
python3 tools/pw_lint.py
tidy_out="$(scripts/run_tidy.sh build)"
printf '%s\n' "$tidy_out"
if printf '%s' "$tidy_out" | grep -q "SKIPPED"; then
  SKIPPED_LANES="${SKIPPED_LANES}  - clang-tidy: SKIPPED (clang-tidy missing)\n"
fi
scripts/format.sh --check

ctest --test-dir build --output-on-failure

# The labeled lanes (tests/CMakeLists.txt: unit / property / chaos /
# golden / cascade) all run as part of the full suite above; this gate
# only checks they stay populated — an empty label means the hardening
# coverage silently fell out of the build.
echo "=== labeled lanes (property, chaos, golden, cascade) ==="
for label in property chaos golden cascade; do
  if ctest --test-dir build -L "$label" -N | grep -q "Total Tests: 0"; then
    echo "error: no tests carry ctest label '$label'" >&2
    exit 1
  fi
done

for example in build/examples/*; do
  # -f skips CMakeFiles/ and friends (directories pass -x).
  [ -f "$example" ] && [ -x "$example" ] || continue
  echo "=== $example ==="
  "$example" > /dev/null
done
for bench in build/bench/fig* build/bench/ablation_* build/bench/chaos_report; do
  echo "=== $bench (quick) ==="
  "$bench" > /dev/null
done

# The event log must be line-by-line parseable JSON with alarm
# transitions present; grid_monitor validates with the same JSON
# machinery the log is written with.
echo "=== event log round-trip ==="
events_file="build/check_events.jsonl"
build/examples/grid_monitor --events "$events_file" > /dev/null
build/examples/grid_monitor --validate-events "$events_file"

# Perf-report lane (docs/OBSERVABILITY.md): the comparison tool's own
# fixtures, a fresh quick-mode BENCH_pipeline.json, and schema checks
# on both the fresh report and the checked-in baseline. Wall-clock
# numbers are machine-specific and are not gated here; the trajectory
# diff (`bench_report.py diff`) is run against the committed baseline
# by hand / per-PR, where a human can judge the hardware. Allocations
# and regressor builds per op depend only on the code, so they are gated
# exactly: any rise over the committed baseline fails the lane.
echo "=== perf report (schema + self-test + allocs/builds per op gate) ==="
python3 scripts/bench_report.py --self-test
build/bench/perf_pipeline --quick --json build/BENCH_pipeline.json \
  --benchmark_filter='BM_Detect|BM_TrainMulti' > /dev/null
python3 scripts/bench_report.py validate build/BENCH_pipeline.json \
  BENCH_pipeline.json
python3 scripts/bench_report.py diff BENCH_pipeline.json \
  build/BENCH_pipeline.json --only '(allocs|builds)_per_op$' --threshold 0

# Sparse-path lane (docs/SPARSE.md): the 300-bus dataset build and
# detector training through the CSR solvers, tracked in their own
# baseline so scale regressions don't hide behind the small-grid rows.
# Newton iterations per solve over the dataset build depend only on the
# code, and a wrong outage admittance moves them either way (one that
# leaves the tripped branch stamped solves in fewer), so the gate runs
# in both directions: any change fails here.
echo "=== perf report (sparse 300-bus + iterations per solve gate) ==="
build/bench/perf_pipeline --quick --json build/BENCH_sparse.json \
  --benchmark_filter='BM_BuildDataset300|BM_TrainSparse300' > /dev/null
python3 scripts/bench_report.py validate build/BENCH_sparse.json \
  BENCH_sparse.json
python3 scripts/bench_report.py diff BENCH_sparse.json \
  build/BENCH_sparse.json --only 'iterations_per_solve$' --threshold 0
python3 scripts/bench_report.py diff build/BENCH_sparse.json \
  BENCH_sparse.json --only 'iterations_per_solve$' --threshold 0

# pwbench lane (pwbench/BENCHMARK.md): the benchmark package compiles
# src/ through its own CMake project into .bench_build/, so this builds
# the library API exactly as the benchmark pipeline does, then runs
# every workload at smoke sizing with the correctness replay on, plus
# the comparison tool's own fixtures.
echo "=== pwbench (smoke + compare self-test) ==="
python3 pwbench/run.py --smoke
python3 pwbench/compare.py --self-test

# The instrumentation must compile out cleanly: same tests, hooks gone.
echo "=== PW_OBS_DISABLED build ==="
cmake -B build-obs-off -G Ninja -DPW_OBS_DISABLED=ON
cmake --build build-obs-off
ctest --test-dir build-obs-off --output-on-failure

# Address+UB sanitizer gate for the view layer: non-owning views over
# caller-owned buffers and stack blocks are exactly the kind of code
# where a lifetime bug becomes silent corruption, so the whole suite runs
# instrumented. Benchmarks are skipped (the allocation-counter
# interposer and ASan both replace operator new/delete).
echo "=== PW_ASAN build ==="
cmake -B build-asan -G Ninja -DPW_ASAN=ON \
  -DPHASORWATCH_BUILD_BENCHMARKS=OFF -DPHASORWATCH_BUILD_EXAMPLES=OFF
cmake --build build-asan
ctest --test-dir build-asan --output-on-failure

# UndefinedBehaviorSanitizer gate, standalone: the ASan lane above
# already bundles UBSan, but an -fsanitize=undefined-only build keeps
# UB findings attributable when ASan's allocator changes timing or
# layout, and -fno-sanitize-recover=all turns every UB hit into a test
# failure instead of a log line. Full suite, like the ASan lane.
echo "=== PW_UBSAN build ==="
cmake -B build-ubsan -G Ninja -DPW_UBSAN=ON \
  -DPHASORWATCH_BUILD_BENCHMARKS=OFF -DPHASORWATCH_BUILD_EXAMPLES=OFF
cmake --build build-ubsan
ctest --test-dir build-ubsan --output-on-failure

# ThreadSanitizer gate, full suite like the ASan/UBSan lanes: every
# test target is built instrumented and run, so any code path that
# reaches the thread pool, the fleet's park/wake paths, the streaming
# monitor or the obs layer is race-checked, not only the concurrency
# suites. A TSan report exits the test binary with status 66, which
# ctest counts as a failure. Benchmarks/examples are skipped —
# google-benchmark is not TSan-instrumented here and they add nothing
# to the race surface. GCC's -Wtsan note that atomic_thread_fence is
# not modeled is expected (fleet.cc's park/wake fences order no plain
# data; see docs/PARALLELISM.md).
echo "=== PW_TSAN build ==="
cmake -B build-tsan -G Ninja -DPW_TSAN=ON \
  -DPHASORWATCH_BUILD_BENCHMARKS=OFF -DPHASORWATCH_BUILD_EXAMPLES=OFF
cmake --build build-tsan
# Left out, by construction: SyncTest.UnrankedMutexesAreExemptFromOrdering
# takes two unranked mutexes in both orders on purpose (it proves the
# rank detector exempts them), which TSan reports as lock-order inversion.
ctest --test-dir build-tsan --output-on-failure \
  -E '^SyncTest\.UnrankedMutexesAreExemptFromOrdering$'

# Clang thread-safety analysis gate (docs/STATIC_ANALYSIS.md): compiles
# the library with the common/sync.h annotations checked as errors.
# Tests are excluded on purpose — sync_test deliberately calls a
# PW_REQUIRES method without its lock to prove the runtime detector
# aborts, which this lane would (correctly) reject at compile time.
echo "=== PW_THREAD_SAFETY build (Clang thread-safety analysis) ==="
CLANGXX="${CLANGXX:-}"
if [ -z "$CLANGXX" ]; then
  for cand in clang++ clang++-18 clang++-17 clang++-16 clang++-15 \
              clang++-14; do
    if command -v "$cand" >/dev/null 2>&1; then
      CLANGXX="$cand"
      break
    fi
  done
fi
if [ -n "$CLANGXX" ]; then
  cmake -B build-tsafety -G Ninja -DPW_THREAD_SAFETY=ON \
    -DCMAKE_CXX_COMPILER="$CLANGXX" \
    -DPHASORWATCH_BUILD_TESTS=OFF -DPHASORWATCH_BUILD_BENCHMARKS=OFF \
    -DPHASORWATCH_BUILD_EXAMPLES=OFF
  cmake --build build-tsafety
else
  skip_lane "PW_THREAD_SAFETY" "clang++ missing; set CLANGXX or install clang"
fi

echo "=== summary ==="
if [ -n "$SKIPPED_LANES" ]; then
  echo "skipped lanes (toolchain missing — install it to close the gap):"
  printf '%b' "$SKIPPED_LANES"
else
  echo "no skipped lanes"
fi
echo "all checks passed"
