#ifndef PHASORWATCH_OBS_REPORT_H_
#define PHASORWATCH_OBS_REPORT_H_

#include <map>
#include <string>

#include "common/check.h"
#include "common/status.h"

namespace phasorwatch::obs {

/// Builder for the canonical machine-readable run report
/// (`pw-bench-report-v2`): one JSON document bundling the global
/// metrics snapshot (counters, gauges and quantile summaries),
/// harness-specific numeric results, build provenance
/// (git SHA, build type, compiler, obs configuration), and host info.
/// `scripts/bench_report.py` validates the schema and diffs two
/// reports; every bench harness's `--json <path>` flag is backed by
/// this builder, producing the `BENCH_<name>.json` perf-trajectory
/// points (docs/OBSERVABILITY.md, EXPERIMENTS.md).
///
/// All sections are emitted with sorted keys, so two reports over the
/// same data are byte-identical apart from the timestamp.
class RunReportBuilder {
 public:
  /// `name` identifies the harness ("pipeline", "fig7", "chaos", ...).
  explicit RunReportBuilder(std::string name);

  /// Adds one harness-level numeric result ("detect.ieee14.allocs_per_op").
  /// Re-adding a key overwrites it.
  RunReportBuilder& AddResult(const std::string& key, double value,
                              const std::string& unit = "");

  /// Serializes the report, snapshotting the global metrics registry at
  /// call time.
  std::string Json() const;

  /// Json() to a file (truncating), newline-terminated.
  PW_NODISCARD Status WriteFile(const std::string& path) const;

 private:
  struct ResultEntry {
    double value = 0.0;
    std::string unit;
  };

  std::string name_;
  std::map<std::string, ResultEntry> results_;
};

}  // namespace phasorwatch::obs

#endif  // PHASORWATCH_OBS_REPORT_H_
