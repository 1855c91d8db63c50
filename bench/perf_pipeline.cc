// End-to-end pipeline microbenchmarks: power-flow solve latency (the
// data-generation cost) and per-sample online detection latency (the
// cost that must beat the PMU reporting interval of ~16-33 ms). After
// the benchmark tables, prints the observability snapshot accumulated
// over the run: per-stage detect latency quantiles, Eq. 9 regressor
// counters, and power-flow iteration counts.

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/alloc_counter.h"
#include "bench/perf_common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "detect/detector.h"
#include "eval/dataset.h"
#include "eval/experiments.h"
#include "grid/ieee_cases.h"
#include "grid/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "powerflow/powerflow.h"
#include "sim/missing_data.h"
#include "sim/pmu_network.h"

namespace pw = phasorwatch;

namespace {

void BM_AcPowerFlow(benchmark::State& state) {
  auto grid = pw::grid::EvaluationSystem(static_cast<int>(state.range(0)));
  if (!grid.ok()) {
    state.SkipWithError("grid construction failed");
    return;
  }
  for (auto _ : state) {
    auto sol = pw::pf::SolveAcPowerFlow(*grid);
    benchmark::DoNotOptimize(sol.value().vm);
  }
}
BENCHMARK(BM_AcPowerFlow)->Arg(14)->Arg(30)->Arg(57)->Arg(118)
    ->Unit(benchmark::kMillisecond);

// Shared trained detector per system (training is too slow to repeat
// inside the benchmark loop).
struct TrainedFixture {
  pw::grid::Grid grid;
  pw::eval::Dataset dataset;
  pw::eval::TrainedMethods methods;
};

TrainedFixture* GetFixture(int buses) {
  static std::map<int, TrainedFixture*>* cache =
      new std::map<int, TrainedFixture*>();
  auto it = cache->find(buses);
  if (it != cache->end()) return it->second;

  auto grid = pw::grid::EvaluationSystem(buses);
  if (!grid.ok()) return nullptr;
  pw::eval::DatasetOptions dopts;
  dopts.train_states = 8;
  dopts.train_samples_per_state = 6;
  dopts.test_states = 4;
  dopts.test_samples_per_state = 4;
  auto dataset = pw::eval::BuildDataset(*grid, dopts, 9001);
  if (!dataset.ok()) return nullptr;
  pw::eval::ExperimentOptions opts;
  opts.mlr.epochs = 30;
  // The dataset holds a pointer to the caller's grid, so the fixture
  // must own the grid at a stable address before training.
  auto* fixture = new TrainedFixture{std::move(grid).value(),
                                     std::move(dataset).value(),
                                     pw::eval::TrainedMethods{}};
  fixture->dataset.grid = &fixture->grid;
  auto methods = pw::eval::TrainedMethods::Train(fixture->dataset, opts);
  if (!methods.ok()) {
    delete fixture;
    return nullptr;
  }
  fixture->methods = std::move(methods).value();
  (*cache)[buses] = fixture;
  return fixture;
}

void BM_DetectCompleteSample(benchmark::State& state) {
  TrainedFixture* fixture = GetFixture(static_cast<int>(state.range(0)));
  if (fixture == nullptr) {
    state.SkipWithError("fixture construction failed");
    return;
  }
  auto [vm, va] = fixture->dataset.outages[0].test.Sample(0);
  for (auto _ : state) {
    auto result = fixture->methods.detector().Detect(vm, va);
    benchmark::DoNotOptimize(result.value().lines);
  }
}
BENCHMARK(BM_DetectCompleteSample)->Arg(14)->Arg(30)
    ->Unit(benchmark::kMicrosecond);

void BM_DetectWithMissingData(benchmark::State& state) {
  TrainedFixture* fixture = GetFixture(static_cast<int>(state.range(0)));
  if (fixture == nullptr) {
    state.SkipWithError("fixture construction failed");
    return;
  }
  auto [vm, va] = fixture->dataset.outages[0].test.Sample(0);
  pw::sim::MissingMask mask = pw::sim::MissingAtOutage(
      fixture->grid.num_buses(), fixture->dataset.outages[0].line);
  // Warm the regressor cache once; steady-state latency is what counts
  // for the online budget.
  benchmark::DoNotOptimize(fixture->methods.detector().Detect(vm, va, mask));
  for (auto _ : state) {
    auto result = fixture->methods.detector().Detect(vm, va, mask);
    benchmark::DoNotOptimize(result.value().lines);
  }
}
BENCHMARK(BM_DetectWithMissingData)->Arg(14)->Arg(30)
    ->Unit(benchmark::kMicrosecond);

// The steady-state allocation benchmark: a warmed detector processing
// one missing-data sample per iteration, with the heap-allocation
// interposer (bench/alloc_counter.cc) reporting allocs/op. This is the
// tracked number behind the allocation-free hot-path work: after
// warm-up (regressor cache, caller-owned scratch buffers), the
// per-sample count must stay near the handful of allocations that
// escape into the DetectionResult.
void BM_DetectSteadyState(benchmark::State& state) {
  TrainedFixture* fixture = GetFixture(static_cast<int>(state.range(0)));
  if (fixture == nullptr) {
    state.SkipWithError("fixture construction failed");
    return;
  }
  auto [vm, va] = fixture->dataset.outages[0].test.Sample(0);
  pw::sim::MissingMask mask = pw::sim::MissingAtOutage(
      fixture->grid.num_buses(), fixture->dataset.outages[0].line);
  // Warm every cache the steady state relies on.
  for (int i = 0; i < 3; ++i) {
    benchmark::DoNotOptimize(fixture->methods.detector().Detect(vm, va, mask));
  }
  uint64_t allocs_before = pw::bench::AllocCount();
  uint64_t bytes_before = pw::bench::AllocBytes();
  for (auto _ : state) {
    auto result = fixture->methods.detector().Detect(vm, va, mask);
    benchmark::DoNotOptimize(result.value().lines);
  }
  state.counters["allocs_per_op"] =
      pw::bench::AllocsPerOp(allocs_before, state.iterations());
  state.counters["alloc_bytes_per_op"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(pw::bench::AllocBytes() - bytes_before) /
                static_cast<double>(state.iterations());
}
BENCHMARK(BM_DetectSteadyState)->Arg(14)->Arg(30)
    ->Unit(benchmark::kMicrosecond);

// Screened twin of BM_DetectSteadyState: the sample carries a gross
// spike, so the Eq. 4 bad-data screen fires on every iteration and
// detection runs under the demoted (effective) mask. The screened mask
// lives in per-thread scratch, so allocs/op must match the unscreened
// steady state — screening costs one ellipse quadratic form per node,
// not allocations.
void BM_DetectSteadyStateScreened(benchmark::State& state) {
  TrainedFixture* fixture = GetFixture(static_cast<int>(state.range(0)));
  if (fixture == nullptr) {
    state.SkipWithError("fixture construction failed");
    return;
  }
  auto [vm, va] = fixture->dataset.outages[0].test.Sample(0);
  vm[5] += 5.0;  // unit-scale gross error, far beyond kScreenThreshold
  va[5] -= 3.0;
  pw::sim::MissingMask mask = pw::sim::MissingAtOutage(
      fixture->grid.num_buses(), fixture->dataset.outages[0].line);
  for (int i = 0; i < 3; ++i) {
    auto warm = fixture->methods.detector().Detect(vm, va, mask);
    if (!warm.ok() || warm.value().screened_nodes == 0) {
      state.SkipWithError("screen did not fire");
      return;
    }
  }
  uint64_t allocs_before = pw::bench::AllocCount();
  uint64_t bytes_before = pw::bench::AllocBytes();
  for (auto _ : state) {
    auto result = fixture->methods.detector().Detect(vm, va, mask);
    benchmark::DoNotOptimize(result.value().lines);
  }
  state.counters["allocs_per_op"] =
      pw::bench::AllocsPerOp(allocs_before, state.iterations());
  state.counters["alloc_bytes_per_op"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(pw::bench::AllocBytes() - bytes_before) /
                static_cast<double>(state.iterations());
}
BENCHMARK(BM_DetectSteadyStateScreened)->Arg(14)->Arg(30)
    ->Unit(benchmark::kMicrosecond);

// A multi-line detector (max_outage_lines = 2) trained on the shared
// fixture's corpus, kept per system like the fixture itself.
pw::detect::OutageDetector* GetMultiLineDetector(int buses) {
  static std::map<int, pw::detect::OutageDetector*>* cache =
      new std::map<int, pw::detect::OutageDetector*>();
  auto it = cache->find(buses);
  if (it != cache->end()) return it->second;
  TrainedFixture* fixture = GetFixture(buses);
  if (fixture == nullptr) return nullptr;
  pw::detect::TrainingData training;
  training.normal = &fixture->dataset.normal.train;
  for (const auto& c : fixture->dataset.outages) {
    training.case_lines.push_back(c.line);
    training.outage.push_back(&c.train);
  }
  pw::detect::DetectorOptions options;
  options.max_outage_lines = 2;
  auto detector = pw::detect::OutageDetector::Train(
      fixture->grid, fixture->methods.network(), training, options);
  if (!detector.ok()) return nullptr;
  auto* trained = new pw::detect::OutageDetector(std::move(detector).value());
  (*cache)[buses] = trained;
  return trained;
}

// Multi-line twin of BM_DetectSteadyState: max_outage_lines = 2 on the
// same masked outage sample, which clears the gate, so every iteration
// also runs the greedy peel. The peel rounds reuse the per-thread
// scratch, so allocs/op must stay at the single-line steady state's
// count plus the one outage_set entry list that escapes in the result.
void BM_DetectSteadyStateMulti(benchmark::State& state) {
  TrainedFixture* fixture = GetFixture(static_cast<int>(state.range(0)));
  pw::detect::OutageDetector* detector =
      GetMultiLineDetector(static_cast<int>(state.range(0)));
  if (fixture == nullptr || detector == nullptr) {
    state.SkipWithError("fixture construction failed");
    return;
  }
  auto [vm, va] = fixture->dataset.outages[0].test.Sample(0);
  pw::sim::MissingMask mask = pw::sim::MissingAtOutage(
      fixture->grid.num_buses(), fixture->dataset.outages[0].line);
  for (int i = 0; i < 3; ++i) {
    auto warm = detector->Detect(vm, va, mask);
    if (!warm.ok() || warm.value().outage_set.empty()) {
      state.SkipWithError("sample not gated: the peel did not run");
      return;
    }
  }
  uint64_t allocs_before = pw::bench::AllocCount();
  uint64_t bytes_before = pw::bench::AllocBytes();
  for (auto _ : state) {
    auto result = detector->Detect(vm, va, mask);
    benchmark::DoNotOptimize(result.value().outage_set);
  }
  state.counters["allocs_per_op"] =
      pw::bench::AllocsPerOp(allocs_before, state.iterations());
  state.counters["alloc_bytes_per_op"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(pw::bench::AllocBytes() - bytes_before) /
                static_cast<double>(state.iterations());
}
BENCHMARK(BM_DetectSteadyStateMulti)->Arg(30)
    ->Unit(benchmark::kMicrosecond);

// Cold-build row: every iteration detects the fixture's outage sample
// under a 2-node mask no earlier iteration used, on a detector loaded
// from the fixture's saved model, so its cache starts empty and each
// detect pays for the Eq. 9 factors its masked groups need. The masks
// are the first iterations of a seeded shuffle of all node pairs and
// the iteration count is fixed, so builds/detect depends only on the
// code. Reports the time per detect, proximity.regressor_builds per
// detect, and the heap allocations per detect, builds included (exact
// for one --benchmark_filter, so check.sh's allocs/op gate covers the
// cold path too).
constexpr int kColdMasks = 200;

void BM_DetectColdMask(benchmark::State& state) {
  TrainedFixture* fixture = GetFixture(static_cast<int>(state.range(0)));
  if (fixture == nullptr) {
    state.SkipWithError("fixture construction failed");
    return;
  }
  std::stringstream model;
  if (!fixture->methods.detector().Save(model).ok()) {
    state.SkipWithError("model save failed");
    return;
  }
  auto loaded = pw::detect::OutageDetector::Load(model, fixture->grid,
                                                 fixture->methods.network());
  if (!loaded.ok()) {
    state.SkipWithError("model load failed");
    return;
  }
  pw::detect::OutageDetector detector = std::move(loaded).value();
  const size_t n = fixture->grid.num_buses();
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) pairs.emplace_back(a, b);
  }
  if (pairs.size() < static_cast<size_t>(kColdMasks)) {
    state.SkipWithError("too few node pairs for fresh masks");
    return;
  }
  pw::Rng rng(0xC01DBA5Eull);
  rng.Shuffle(pairs);
  auto [vm, va] = fixture->dataset.outages[0].test.Sample(0);
  const pw::obs::Counter* builds =
      pw::obs::MetricsRegistry::Global().GetCounter(
          "proximity.regressor_builds");
  const uint64_t builds_before = builds->value();
  const uint64_t allocs_before = pw::bench::AllocCount();
  size_t next = 0;
  for (auto _ : state) {
    pw::sim::MissingMask mask = pw::sim::MissingMask::None(n);
    mask.missing[pairs[next].first] = true;
    mask.missing[pairs[next].second] = true;
    ++next;
    auto result = detector.Detect(vm, va, mask);
    benchmark::DoNotOptimize(result.value().lines);
  }
  state.counters["builds_per_op"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(builds->value() - builds_before) /
                static_cast<double>(state.iterations());
  state.counters["allocs_per_op"] =
      pw::bench::AllocsPerOp(allocs_before, state.iterations());
}
BENCHMARK(BM_DetectColdMask)->Arg(30)->Iterations(kColdMasks)
    ->Unit(benchmark::kMicrosecond);

// Training row: Train on the perf fixture's data with max_outage_lines
// = 2, so the peel-threshold calibration runs and every Train makes its
// cold Eq. 9 builds on a fresh engine. Reports the wall time per Train
// (process CPU time beside it, as Train fans out across its pool) and
// proximity.regressor_builds per Train, which depends only on the code.
// It reports no allocs/op: the pool's task queue grows with how the
// workers interleave, so a fanned-out Train's allocation count is not
// exact.
void BM_TrainMulti(benchmark::State& state) {
  TrainedFixture* fixture = GetFixture(static_cast<int>(state.range(0)));
  if (fixture == nullptr) {
    state.SkipWithError("fixture construction failed");
    return;
  }
  pw::detect::TrainingData training;
  training.normal = &fixture->dataset.normal.train;
  for (const auto& c : fixture->dataset.outages) {
    training.case_lines.push_back(c.line);
    training.outage.push_back(&c.train);
  }
  pw::detect::DetectorOptions options;
  options.max_outage_lines = 2;
  const pw::obs::Counter* builds =
      pw::obs::MetricsRegistry::Global().GetCounter(
          "proximity.regressor_builds");
  const uint64_t builds_before = builds->value();
  for (auto _ : state) {
    auto detector = pw::detect::OutageDetector::Train(
        fixture->grid, fixture->methods.network(), training, options);
    if (!detector.ok()) {
      state.SkipWithError("training failed");
      return;
    }
    benchmark::DoNotOptimize(detector->proximity_cache_size());
  }
  state.counters["builds_per_op"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(builds->value() - builds_before) /
                static_cast<double>(state.iterations());
}
BENCHMARK(BM_TrainMulti)->Arg(30)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Threads-vs-wall-time sweep for the dataset build, the pipeline's
// dominant cost (one AC power flow per solved state per outage case).
// Arg = parallelism degree; every degree produces a bit-identical
// dataset (tests/parallel_determinism_test.cc), so the rows differ only
// in wall time. On a single-core host the sweep degenerates to flat
// timings; on an N-core host the 118-bus row scales until the per-case
// fan-out (171 present lines) is exhausted.
void BM_BuildDataset118(benchmark::State& state) {
  auto grid = pw::grid::EvaluationSystem(118);
  if (!grid.ok()) {
    state.SkipWithError("grid construction failed");
    return;
  }
  pw::eval::DatasetOptions dopts;
  // Small per-case sizing keeps one iteration tractable; the fan-out
  // width (number of outage cases) is what the sweep is probing.
  dopts.train_states = 2;
  dopts.train_samples_per_state = 2;
  dopts.test_states = 1;
  dopts.test_samples_per_state = 2;
  dopts.parallelism = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto dataset = pw::eval::BuildDataset(*grid, dopts, 9001);
    if (!dataset.ok()) {
      state.SkipWithError("dataset build failed");
      return;
    }
    benchmark::DoNotOptimize(dataset->outages.size());
  }
  state.counters["threads"] = static_cast<double>(
      pw::ResolveParallelism(static_cast<size_t>(state.range(0))));
}
BENCHMARK(BM_BuildDataset118)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

// 300-bus scale benchmarks behind the checked-in BENCH_sparse.json
// baseline (docs/SPARSE.md). The all-line dataset build runs one sparse
// AC solve per load state per outage case, each on an admittance matrix
// assembled once per simulated block from that case's outage grid; the
// training row covers the subspace pipeline at 300 nodes. Small
// per-case sizing keeps one iteration CI-feasible — the fan-out width
// (hundreds of outage cases through the sparse path) is what these rows
// track.
pw::eval::DatasetOptions Sparse300DatasetOptions() {
  pw::eval::DatasetOptions dopts;
  dopts.train_states = 2;
  dopts.train_samples_per_state = 2;
  dopts.test_states = 1;
  dopts.test_samples_per_state = 2;
  return dopts;
}

void BM_BuildDataset300(benchmark::State& state) {
  auto grid = pw::grid::Synthetic300Bus();
  if (!grid.ok()) {
    state.SkipWithError("grid construction failed");
    return;
  }
  pw::eval::DatasetOptions dopts = Sparse300DatasetOptions();
  // Newton iterations per AC solve over the timed builds: it depends
  // only on the code, so a wrong outage admittance shows as a changed
  // value. Omitted when no solve was counted (observability off).
  pw::obs::MetricsRegistry& registry = pw::obs::MetricsRegistry::Global();
  const pw::obs::Counter* solves = registry.GetCounter("powerflow.ac.solves");
  const pw::obs::Counter* iterations =
      registry.GetCounter("powerflow.ac.iterations_total");
  const uint64_t solves_before = solves->value();
  const uint64_t iterations_before = iterations->value();
  size_t cases = 0;
  for (auto _ : state) {
    auto dataset = pw::eval::BuildDataset(*grid, dopts, 9001);
    if (!dataset.ok()) {
      state.SkipWithError("dataset build failed");
      return;
    }
    cases = dataset->outages.size();
    benchmark::DoNotOptimize(cases);
  }
  state.counters["cases"] = static_cast<double>(cases);
  const uint64_t solved = solves->value() - solves_before;
  if (solved > 0) {
    state.counters["nr_iterations_per_solve"] =
        static_cast<double>(iterations->value() - iterations_before) /
        static_cast<double>(solved);
  }
}
BENCHMARK(BM_BuildDataset300)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_TrainSparse300(benchmark::State& state) {
  static auto* fixture = []() -> std::pair<pw::grid::Grid,
                                           pw::eval::Dataset>* {
    auto grid = pw::grid::Synthetic300Bus();
    if (!grid.ok()) return nullptr;
    auto* f = new std::pair<pw::grid::Grid, pw::eval::Dataset>(
        std::move(grid).value(), pw::eval::Dataset{});
    auto dataset =
        pw::eval::BuildDataset(f->first, Sparse300DatasetOptions(), 9001);
    if (!dataset.ok()) {
      delete f;
      return nullptr;
    }
    f->second = std::move(dataset).value();
    f->second.grid = &f->first;
    return f;
  }();
  if (fixture == nullptr) {
    state.SkipWithError("fixture construction failed");
    return;
  }
  auto network = pw::sim::PmuNetwork::Build(
      fixture->first,
      pw::sim::PmuNetwork::DefaultClusterCount(fixture->first.num_buses()));
  if (!network.ok()) {
    state.SkipWithError("pmu network construction failed");
    return;
  }
  pw::detect::TrainingData training;
  training.normal = &fixture->second.normal.train;
  for (const auto& c : fixture->second.outages) {
    training.case_lines.push_back(c.line);
    training.outage.push_back(&c.train);
  }
  for (auto _ : state) {
    auto detector = pw::detect::OutageDetector::Train(fixture->first, *network,
                                                      training, {});
    if (!detector.ok()) {
      state.SkipWithError("training failed");
      return;
    }
    benchmark::DoNotOptimize(detector.ok());
  }
  state.counters["cases"] =
      static_cast<double>(fixture->second.outages.size());
}
BENCHMARK(BM_TrainSparse300)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_MlrPredict(benchmark::State& state) {
  TrainedFixture* fixture = GetFixture(static_cast<int>(state.range(0)));
  if (fixture == nullptr) {
    state.SkipWithError("fixture construction failed");
    return;
  }
  auto [vm, va] = fixture->dataset.outages[0].test.Sample(0);
  pw::sim::MissingMask none =
      pw::sim::MissingMask::None(fixture->grid.num_buses());
  for (auto _ : state) {
    auto lines = fixture->methods.mlr().PredictLines(vm, va, none);
    benchmark::DoNotOptimize(lines);
  }
}
BENCHMARK(BM_MlrPredict)->Arg(14)->Arg(30)->Unit(benchmark::kMicrosecond);

// Tail-latency probe behind the checked-in BENCH_pipeline.json
// baseline: a warmed detector processing the missing-data sample in a
// plain timed loop, each frame recorded into a per-system quantile
// histogram. Unlike the google-benchmark loops above, this reports the
// DISTRIBUTION (p50/p99/p999) rather than the mean — the number the
// PMU reporting-interval budget actually constrains — plus allocs/op
// so the steady-state allocation invariant is tracked in the same
// document. Runs regardless of --benchmark_filter, so every report
// carries the acceptance numbers.
void RunDetectLatencyProbe(pw::bench::ReportResults* results, bool quick) {
  const int iterations = quick ? 400 : 2000;
  std::printf("\nDetect frame-latency probe (%d iterations/system):\n",
              iterations);
  for (int buses : {14, 30}) {
    TrainedFixture* fixture = GetFixture(buses);
    if (fixture == nullptr) {
      std::fprintf(stderr, "latency probe: fixture %d failed\n", buses);
      continue;
    }
    auto [vm, va] = fixture->dataset.outages[0].test.Sample(0);
    pw::sim::MissingMask mask = pw::sim::MissingAtOutage(
        fixture->grid.num_buses(), fixture->dataset.outages[0].line);
    for (int i = 0; i < 3; ++i) {
      benchmark::DoNotOptimize(
          fixture->methods.detector().Detect(vm, va, mask));
    }
    const std::string series =
        "pipeline.detect_frame_us.ieee" + std::to_string(buses);
    // Direct registry access (not PW_OBS_QUANTILE_RECORD) so the probe
    // still measures under PW_OBS_DISABLED builds — the instruments
    // stay linkable there, only the ambient macros compile out.
    pw::obs::QuantileHistogram* hist =
        pw::obs::MetricsRegistry::Global().GetQuantile(
            series, pw::obs::DefaultLatencyQuantileOptions());
    hist->Reset();
    const uint64_t allocs_before = pw::bench::AllocCount();
    for (int i = 0; i < iterations; ++i) {
      const double start_us = pw::obs::MonotonicNowUs();
      auto result = fixture->methods.detector().Detect(vm, va, mask);
      benchmark::DoNotOptimize(result.value().lines);
      hist->Record(pw::obs::MonotonicNowUs() - start_us);
    }
    const double allocs_per_op = pw::bench::AllocsPerOp(
        allocs_before, static_cast<uint64_t>(iterations));
    pw::obs::QuantileHistogram::Snapshot snap = hist->TakeSnapshot();
    std::printf(
        "  ieee%-3d p50=%8.1f us  p99=%8.1f us  p999=%8.1f us  "
        "max=%8.1f us  allocs/op=%.0f\n",
        buses, snap.p50(), snap.p99(), snap.p999(), snap.max, allocs_per_op);
    const std::string prefix = "detect.ieee" + std::to_string(buses);
    results->emplace_back(prefix + ".p50_us", snap.p50());
    results->emplace_back(prefix + ".p99_us", snap.p99());
    results->emplace_back(prefix + ".p999_us", snap.p999());
    results->emplace_back(prefix + ".max_us", snap.max);
    results->emplace_back(prefix + ".allocs_per_op", allocs_per_op);
  }
}

// The report is named after its file, BENCH_<name>.json, so the sparse
// lane's report says "sparse"; any other file name gives "pipeline".
std::string ReportNameFor(const std::string& json_path) {
  constexpr std::string_view kPrefix = "BENCH_";
  constexpr std::string_view kSuffix = ".json";
  const std::string file = json_path.substr(json_path.find_last_of('/') + 1);
  if (file.size() > kPrefix.size() + kSuffix.size() &&
      file.starts_with(kPrefix) && file.ends_with(kSuffix)) {
    return file.substr(kPrefix.size(),
                       file.size() - kPrefix.size() - kSuffix.size());
  }
  return "pipeline";
}

}  // namespace

// Custom main (instead of benchmark_main) so the run ends with the
// latency probe and the metrics snapshot: stage timings and counters
// are the evidence for any future perf claim about this pipeline.
int main(int argc, char** argv) {
  pw::bench::PerfRunConfig config;
  if (!pw::bench::InitPerfHarness(&config, argc, argv)) return 1;
  pw::bench::ReportResults results;
  pw::bench::JsonCaptureReporter reporter(&results);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  RunDetectLatencyProbe(&results, config.quick);
  pw::bench::RecordSizing(config, reporter, &results);
  std::printf("\n%s",
              pw::obs::MetricsRegistry::Global().TextSnapshot().c_str());
  return pw::bench::MaybeWriteJsonReport(
      config.json_path, ReportNameFor(config.json_path), results);
}
