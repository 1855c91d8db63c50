#ifndef PHASORWATCH_BENCH_PERF_COMMON_H_
#define PHASORWATCH_BENCH_PERF_COMMON_H_

#include <string>
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
///                 (--benchmark_min_time=0.05) and, for perf_pipeline,
///                 a reduced latency-probe iteration count
/// Everything else is forwarded to benchmark::Initialize untouched.
struct PerfRunConfig {
  std::string json_path;
  bool quick = false;
};

/// Strips --json/--quick out of argv, forwards the rest (plus the
/// injected quick-mode flags) to benchmark::Initialize, and reports
/// unrecognized leftovers. Returns false when the process should exit
/// with an error (unrecognized argument).
bool InitPerfHarness(PerfRunConfig* config, int argc, char** argv);

/// Result key recording the run's sizing: 1 for --quick, 0 otherwise.
/// `scripts/bench_report.py diff` compares timing and quantile keys
/// only between reports of one sizing.
inline constexpr char kSizingQuickKey[] = "run.quick";

/// Adds the kSizingQuickKey result for `config` to `results`.
void RecordSizing(const PerfRunConfig& config, ReportResults* results);

/// Console reporter that additionally captures every per-iteration run
/// into a ReportResults list: "<name>.real_time_us", "<name>.cpu_time_us",
/// and one entry per user counter ("<name>.allocs_per_op", ...), with
/// '/' in benchmark names mapped to '.' so the keys stay dotted paths
/// ("BM_DetectSteadyState.14.real_time_us"). Aggregate and errored runs
/// are printed but not captured.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(ReportResults* results) : results_(results) {}

  void ReportRuns(const std::vector<Run>& reports) override;

 private:
  ReportResults* results_;
};

}  // namespace phasorwatch::bench

#endif  // PHASORWATCH_BENCH_PERF_COMMON_H_
