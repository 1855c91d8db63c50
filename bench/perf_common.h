#ifndef PHASORWATCH_BENCH_PERF_COMMON_H_
#define PHASORWATCH_BENCH_PERF_COMMON_H_

#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace phasorwatch::bench {

/// Harness-level options for the google-benchmark executables
/// (perf_linalg, perf_pipeline), layered on top of the library's own
/// flags:
///   --json PATH : write the pw-bench-report-v2 run report to PATH
///                 (the BENCH_<name>.json trajectory files compared by
///                 scripts/bench_report.py)
///   --quick     : CI sizing — short measurement windows
///                 (--benchmark_min_time=0.05) repeated
///                 kQuickRepetitions times, and, for perf_pipeline, a
///                 reduced latency-probe iteration count
/// Everything else is forwarded to benchmark::Initialize untouched.
struct PerfRunConfig {
  std::string json_path;
  bool quick = false;
};

/// Repetitions of every row under --quick. One short window on a
/// shared host can read 50% slow; the median of three drops a single
/// slow window.
inline constexpr int kQuickRepetitions = 3;

/// Strips --json/--quick out of argv, forwards the rest (plus the
/// injected quick-mode flags) to benchmark::Initialize, and reports
/// unrecognized leftovers. Returns false when the process should exit
/// with an error (unrecognized argument).
bool InitPerfHarness(PerfRunConfig* config, int argc, char** argv);

/// Result keys recording the run's sizing: 1 for --quick (0 otherwise),
/// and the repetitions per row. `scripts/bench_report.py diff` compares
/// timing and quantile keys only between reports of one sizing.
inline constexpr char kSizingQuickKey[] = "run.quick";
inline constexpr char kSizingRepetitionsKey[] = "run.repetitions";

class JsonCaptureReporter;

/// Adds the sizing results of a finished run to `results`.
void RecordSizing(const PerfRunConfig& config,
                  const JsonCaptureReporter& reporter,
                  ReportResults* results);

/// Console reporter that additionally captures the per-iteration runs
/// into a ReportResults list: "<name>.real_time_us", "<name>.cpu_time_us",
/// and one entry per user counter ("<name>.allocs_per_op", ...), with
/// '/' in benchmark names mapped to '.' so the keys stay dotted paths
/// ("BM_DetectSteadyState.14.real_time_us"). A row measured more than
/// once (--benchmark_repetitions) reports the median of its repetitions
/// under the same keys, added when the run finalizes. Aggregate and
/// errored runs are printed but not captured.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(ReportResults* results) : results_(results) {}

  void ReportRuns(const std::vector<Run>& reports) override;
  void Finalize() override;

  /// Most repetitions any captured row was measured (1 if none).
  size_t repetitions() const { return repetitions_; }

 private:
  ReportResults* results_;
  /// Every repetition's value per key, keys in first-report order.
  std::vector<std::pair<std::string, std::vector<double>>> samples_;
  size_t repetitions_ = 1;
};

}  // namespace phasorwatch::bench

#endif  // PHASORWATCH_BENCH_PERF_COMMON_H_
