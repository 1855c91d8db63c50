// Microbenchmarks for the linear-algebra substrate: the costs that
// dominate detector training (SVD, pinv) and power-flow solving (LU).

#include <benchmark/benchmark.h>

#include "bench/alloc_counter.h"
#include "bench/perf_common.h"
#include "common/rng.h"
#include "grid/ieee_cases.h"
#include "linalg/lu.h"
#include "linalg/svd.h"

namespace pw = phasorwatch;
using pw::linalg::Matrix;
using pw::linalg::Vector;

namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  pw::Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

void BM_LuFactorSolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(n, n, 1);
  Vector b(n, 1.0);
  uint64_t allocs_before = pw::bench::AllocCount();
  for (auto _ : state) {
    auto lu = pw::linalg::LuDecomposition::Factor(a);
    auto x = lu->Solve(b);
    benchmark::DoNotOptimize(x.value());
  }
  state.counters["allocs_per_op"] =
      pw::bench::AllocsPerOp(allocs_before, state.iterations());
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_LuFactorSolve)->Arg(27)->Arg(59)->Arg(113)->Arg(233)->Complexity();

void BM_JacobiSvd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(n, 2 * n, 2);
  for (auto _ : state) {
    auto svd = pw::linalg::ComputeSvd(a);
    benchmark::DoNotOptimize(svd.value().singular_values);
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(14)->Arg(30)->Arg(57)->Arg(118);

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix a = RandomMatrix(n, n, 4);
  Matrix b = RandomMatrix(n, n, 5);
  uint64_t allocs_before = pw::bench::AllocCount();
  for (auto _ : state) {
    Matrix c = a * b;
    benchmark::DoNotOptimize(c);
  }
  state.counters["allocs_per_op"] =
      pw::bench::AllocsPerOp(allocs_before, state.iterations());
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(118)->Arg(256);

// Dense LU on the reduced DC susceptance Laplacian: the O(n^3) cost
// that the sparse LU (docs/SPARSE.md) avoids on 300+-bus grids.
void BM_DcSolveDenseLu(benchmark::State& state) {
  auto grid = pw::grid::EvaluationSystem(static_cast<int>(state.range(0)));
  if (!grid.ok()) {
    state.SkipWithError("grid construction failed");
    return;
  }
  Matrix lap = grid->BuildSusceptanceLaplacian();
  std::vector<size_t> keep;
  for (size_t i = 0; i < grid->num_buses(); ++i) {
    if (i != grid->SlackBus()) keep.push_back(i);
  }
  Matrix reduced = lap.SelectSubmatrix(keep, keep);
  Vector b(keep.size(), 0.1);
  for (auto _ : state) {
    auto lu = pw::linalg::LuDecomposition::Factor(reduced);
    auto x = lu->Solve(b);
    benchmark::DoNotOptimize(x.value());
  }
}
BENCHMARK(BM_DcSolveDenseLu)->Arg(30)->Arg(57)->Arg(118);

}  // namespace

// Custom main (instead of benchmark_main) for the --json/--quick
// harness flags: a linalg trajectory point is the early-warning signal
// for detector-latency regressions (SVD/LU dominate training and the
// power-flow data generator).
int main(int argc, char** argv) {
  pw::bench::PerfRunConfig config;
  if (!pw::bench::InitPerfHarness(&config, argc, argv)) return 1;
  pw::bench::ReportResults results;
  pw::bench::JsonCaptureReporter reporter(&results);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  pw::bench::RecordSizing(config, reporter, &results);
  return pw::bench::MaybeWriteJsonReport(config.json_path, "linalg", results);
}
