#include "bench/perf_common.h"

#include <cstring>

#include "common/logging.h"

namespace phasorwatch::bench {
namespace {

// Dotted-path-safe form of a benchmark name: "BM_Foo/14/real_time"
// becomes "BM_Foo.14.real_time".
std::string SanitizeBenchName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '/' || c == ':' || c == ' ') c = '.';
  }
  return out;
}

}  // namespace

bool InitPerfHarness(PerfRunConfig* config, int argc, char** argv) {
  SetLogLevelFromEnv();
  std::vector<char*> forwarded;
  forwarded.reserve(static_cast<size_t>(argc) + 1);
  forwarded.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config->quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config->json_path = argv[++i];
    } else {
      forwarded.push_back(argv[i]);
    }
  }
  // Quick mode shortens the measurement window; 0.05 s per benchmark is
  // plenty for schema/smoke runs and keeps the CI lane under a minute.
  // Injected after the user's args, so with --quick it wins over an
  // explicit --benchmark_min_time (last flag takes effect).
  static char kQuickMinTime[] = "--benchmark_min_time=0.05";
  if (config->quick) forwarded.push_back(kQuickMinTime);

  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  return !benchmark::ReportUnrecognizedArguments(forwarded_argc,
                                                 forwarded.data());
}

void RecordSizing(const PerfRunConfig& config, ReportResults* results) {
  results->emplace_back(kSizingQuickKey, config.quick ? 1.0 : 0.0);
}

void JsonCaptureReporter::ReportRuns(const std::vector<Run>& reports) {
  benchmark::ConsoleReporter::ReportRuns(reports);
  for (const Run& run : reports) {
    if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
    if (run.iterations == 0) continue;
    const std::string key = SanitizeBenchName(run.benchmark_name());
    const double iters = static_cast<double>(run.iterations);
    results_->emplace_back(key + ".real_time_us",
                           run.real_accumulated_time / iters * 1e6);
    results_->emplace_back(key + ".cpu_time_us",
                           run.cpu_accumulated_time / iters * 1e6);
    for (const auto& [counter_name, counter] : run.counters) {
      results_->emplace_back(key + "." + SanitizeBenchName(counter_name),
                             static_cast<double>(counter));
    }
  }
}

}  // namespace phasorwatch::bench
