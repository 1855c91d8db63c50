#ifndef PHASORWATCH_EVAL_EXPERIMENTS_H_
#define PHASORWATCH_EVAL_EXPERIMENTS_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/mlr.h"
#include "common/check.h"
#include "common/status.h"
#include "detect/detector.h"
#include "eval/dataset.h"
#include "eval/metrics.h"
#include "sim/fault_injection.h"
#include "sim/pmu_network.h"

namespace phasorwatch::eval {

/// Which test-time missing-data pattern a run injects (Fig. 6).
enum class MissingScenario {
  kNone,               ///< complete data (Fig. 5)
  kOutageEndpoints,    ///< endpoints of the outaged line dark (Fig. 7)
  kRandomOnNormal,     ///< random drops, normal samples only (Fig. 8)
  kRandomOffOutage,    ///< random drops away from the outage (Fig. 9)
};

/// Nodes dropped per sample in the random missing-data scenarios.
inline constexpr size_t kRandomMissingCount = 3;

/// Shared experiment configuration.
struct ExperimentOptions {
  detect::DetectorOptions detector;
  baselines::MlrOptions mlr;
  size_t test_samples_per_case = 100;
  uint64_t seed = 42;
  /// Worker threads for the evaluation fan-outs (per-case scenario
  /// loops, reliability levels) and, via TrainedMethods::Train, the
  /// detector's training fan-out: 0 = one per hardware core, 1 =
  /// serial. Overridable via PW_THREADS (see common/thread_pool.h).
  /// IA/FA results are bit-identical at every setting.
  size_t parallelism = 0;
};

/// One method's aggregate result on one system.
struct MethodResult {
  std::string method;
  double identification_accuracy = 0.0;
  double false_alarm = 0.0;
  size_t samples = 0;
};

/// Result rows for one grid under one scenario.
struct ScenarioResult {
  std::string system;
  size_t num_buses = 0;
  size_t num_valid_cases = 0;
  std::vector<MethodResult> methods;
};

/// A trained pair of the proposed detector and the MLR peer over one
/// dataset, reusable across scenarios. Members live behind stable heap
/// allocations because the detector keeps a pointer to the PMU network.
class TrainedMethods {
 public:
  PW_NODISCARD static Result<TrainedMethods> Train(
      const Dataset& dataset, const ExperimentOptions& options);

  detect::OutageDetector& detector() { return *detector_; }
  const baselines::MlrClassifier& mlr() const { return *mlr_; }
  const sim::PmuNetwork& network() const { return *network_; }

  /// An untrained pair; populate via Train().
  TrainedMethods() = default;

 private:
  std::unique_ptr<sim::PmuNetwork> network_;
  std::unique_ptr<detect::OutageDetector> detector_;
  std::unique_ptr<baselines::MlrClassifier> mlr_;
};

/// Runs one scenario (Figs. 5 and 7-9) for both methods on one dataset.
PW_NODISCARD Result<ScenarioResult> RunScenario(
    const Dataset& dataset, TrainedMethods& methods, MissingScenario scenario,
    const ExperimentOptions& options);

/// Fig. 4: sweep of the detection-group learned fraction (0 = naive
/// orthogonal members only, 1 = proposed Eq. 8 group), complete data.
/// Returns one ScenarioResult per alpha with method = "alpha=<x>".
PW_NODISCARD Result<std::vector<ScenarioResult>> RunGroupFormationSweep(
    const Dataset& dataset, const std::vector<double>& alphas,
    const ExperimentOptions& options);

/// Fig. 10: effective false-alarm rate FA(r) of the proposed detector
/// over system reliability levels (Eqs. 13-15). `device_availabilities`
/// lists per-device reliability r_PMU * r_link values; returns one row
/// per level with the system-wide r and the weighted FA estimated by
/// Monte-Carlo over missing patterns.
struct ReliabilityPoint {
  double device_availability = 0.0;
  double system_reliability = 0.0;
  double effective_false_alarm = 0.0;
  double effective_accuracy = 0.0;
};
PW_NODISCARD Result<std::vector<ReliabilityPoint>> RunReliabilitySweep(
    const Dataset& dataset, TrainedMethods& methods,
    const std::vector<double>& device_availabilities, size_t patterns_per_level,
    const ExperimentOptions& options);

/// One fault regime of the chaos harness (docs/ROBUSTNESS.md): a fault
/// schedule sizing applied on top of one of the paper's missing-data
/// scenarios. Regimes are data — sweep them to chart how IA/FA degrade
/// as measurements turn hostile.
struct ChaosRegime {
  std::string name;                  ///< row label ("clean", ...)
  sim::FaultScheduleOptions faults;  ///< events drawn per outage case
  MissingScenario missing = MissingScenario::kNone;
};

/// The standard sweep: a clean control row, each fault type alone, and
/// a kitchen-sink mix, all on complete data.
std::vector<ChaosRegime> DefaultChaosRegimes();

/// One regime's outcome for the proposed detector on one system.
struct ChaosResult {
  std::string system;
  std::string regime;
  /// IA/FA over the outage test samples that were evaluated; rejected
  /// samples score as misses (IA 0), so degradation is never hidden.
  MethodResult subspace;
  uint64_t faults_injected = 0;   ///< corruptions applied by the injector
  uint64_t samples_rejected = 0;  ///< samples the detector refused (Status)
  uint64_t screened_nodes = 0;    ///< node demotions by the bad-data screen
};

/// Replays every outage case's test samples through seeded fault
/// injection (one deterministic schedule per case and regime) and the
/// hardened detector. Fully determined by (dataset, options.seed,
/// regimes) at every parallelism degree. Sample-level detector
/// rejections (malformed / data-starved) are tallied, not fatal;
/// training-level errors still propagate.
PW_NODISCARD Result<std::vector<ChaosResult>> RunChaosScenario(
    const Dataset& dataset, TrainedMethods& methods,
    const std::vector<ChaosRegime>& regimes, const ExperimentOptions& options);

}  // namespace phasorwatch::eval

#endif  // PHASORWATCH_EVAL_EXPERIMENTS_H_
