#ifndef PHASORWATCH_BENCH_BENCH_COMMON_H_
#define PHASORWATCH_BENCH_BENCH_COMMON_H_

#include <string>
#include <utility>
#include <vector>

#include "eval/dataset.h"
#include "eval/experiments.h"
#include "grid/grid.h"

namespace phasorwatch::bench {

/// Scale of a figure-harness run, selectable via argv[1]:
///   --quick     : IEEE 14 + 30, small sample counts (smoke, < ~1 min)
///   --full      : all four systems with paper-scale sample counts
///   --threads N : worker threads for dataset build, training, and
///                 evaluation (0 = one per core, 1 = serial; results
///                 are bit-identical either way — see
///                 docs/PARALLELISM.md)
///   --json PATH : additionally write the machine-readable run report
///                 (pw-bench-report-v2, obs/report.h) to PATH; the
///                 perf-trajectory `BENCH_<name>.json` files compared
///                 by scripts/bench_report.py. Off by default, and the
///                 harness's stdout is unchanged by it.
/// Default is --quick so `for b in build/bench/*; do $b; done` stays
/// tractable; EXPERIMENTS.md records --full runs.
struct BenchConfig {
  std::vector<int> systems;        ///< bus counts to evaluate
  eval::DatasetOptions dataset;
  eval::ExperimentOptions experiment;
  bool full = false;
  std::string json_path;           ///< empty = no report
};

/// Parses --quick / --full (and optional --seed N, --threads N,
/// --json PATH).
BenchConfig ParseConfig(int argc, char** argv);

/// Named numeric results a harness attaches to its JSON report
/// ("fig7.ieee14.subspace.IA" -> 0.83, ...).
using ReportResults = std::vector<std::pair<std::string, double>>;

/// Writes the run report to `json_path` when non-empty (no-op
/// otherwise). `name` is the report identity — BENCH_<name>.json by
/// convention. Returns a process exit code (0 ok, 1 write failure).
int MaybeWriteJsonReport(const std::string& json_path, const std::string& name,
                         const ReportResults& results);

/// Builds the dataset for one system with the config's sizing.
Result<eval::Dataset> BuildSystemDataset(const grid::Grid& grid,
                                         const BenchConfig& config);

/// Prints the standard harness header (paper banner + config line).
void PrintHeader(const std::string& experiment_id, const std::string& title,
                 const BenchConfig& config);

/// Shared driver for the scenario figures (Figs. 7-9): runs `scenario`
/// on every configured system and prints the IA/FA table. Returns a
/// process exit code.
int RunScenarioHarness(const std::string& experiment_id,
                       const std::string& title,
                       eval::MissingScenario scenario, int argc, char** argv);

/// Prints the global metrics snapshot (pipeline counters, stage latency
/// quantiles) accumulated over the run.
void PrintMetricsSnapshot();

}  // namespace phasorwatch::bench

#endif  // PHASORWATCH_BENCH_BENCH_COMMON_H_
