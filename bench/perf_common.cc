#include "bench/perf_common.h"

#include <algorithm>
#include <cstring>
#include <string>

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
  forwarded.reserve(static_cast<size_t>(argc) + 2);
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
  // Quick mode shortens the measurement window to 0.05 s per benchmark
  // and measures each row kQuickRepetitions times, which keeps the CI
  // lane at a few minutes. Injected after the user's args, so with
  // --quick they win over an explicit --benchmark_min_time or
  // --benchmark_repetitions (last flag takes effect).
  static char kQuickMinTime[] = "--benchmark_min_time=0.05";
  static std::string quick_repetitions =
      "--benchmark_repetitions=" + std::to_string(kQuickRepetitions);
  if (config->quick) {
    forwarded.push_back(kQuickMinTime);
    forwarded.push_back(quick_repetitions.data());
  }

  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  return !benchmark::ReportUnrecognizedArguments(forwarded_argc,
                                                 forwarded.data());
}

void RecordSizing(const PerfRunConfig& config,
                  const JsonCaptureReporter& reporter,
                  ReportResults* results) {
  results->emplace_back(kSizingQuickKey, config.quick ? 1.0 : 0.0);
  results->emplace_back(kSizingRepetitionsKey,
                        static_cast<double>(reporter.repetitions()));
}

void JsonCaptureReporter::ReportRuns(const std::vector<Run>& reports) {
  benchmark::ConsoleReporter::ReportRuns(reports);
  for (const Run& run : reports) {
    if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
    if (run.iterations == 0) continue;
    const std::string key = SanitizeBenchName(run.benchmark_name());
    const double iters = static_cast<double>(run.iterations);
    auto capture = [&](const std::string& name, double value) {
      auto it = std::find_if(samples_.begin(), samples_.end(),
                             [&](const auto& s) { return s.first == name; });
      if (it == samples_.end()) {
        samples_.push_back({name, {}});
        it = samples_.end() - 1;
      }
      it->second.push_back(value);
    };
    capture(key + ".real_time_us", run.real_accumulated_time / iters * 1e6);
    capture(key + ".cpu_time_us", run.cpu_accumulated_time / iters * 1e6);
    for (const auto& [counter_name, counter] : run.counters) {
      capture(key + "." + SanitizeBenchName(counter_name),
              static_cast<double>(counter));
    }
  }
}

void JsonCaptureReporter::Finalize() {
  benchmark::ConsoleReporter::Finalize();
  for (auto& [key, values] : samples_) {
    repetitions_ = std::max(repetitions_, values.size());
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    const double median = values.size() % 2 == 1
                              ? values[mid]
                              : 0.5 * (values[mid - 1] + values[mid]);
    results_->emplace_back(key, median);
  }
  samples_.clear();
}

}  // namespace phasorwatch::bench
