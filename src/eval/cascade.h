#ifndef PHASORWATCH_EVAL_CASCADE_H_
#define PHASORWATCH_EVAL_CASCADE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "detect/session.h"
#include "eval/dataset.h"
#include "eval/experiments.h"
#include "sim/fault_injection.h"
#include "sim/measurement.h"

namespace phasorwatch::eval {

/// One stage of a staged cascade scenario: a topology delta applied at
/// stage entry (trips and restores, cumulative across stages), a demand
/// ramp relative to the base grid, a block of simulated PMU samples at
/// the resulting operating point, and the transport faults active while
/// the stage streams. The paper's single-event replay becomes a
/// sequence of these (docs/ROBUSTNESS.md).
struct CascadeStage {
  std::string name;
  /// Lines tripping at stage entry (must be in service going in).
  std::vector<grid::LineId> trips;
  /// Lines returning to service at stage entry (topology
  /// reconfiguration; must be among the currently tripped lines).
  std::vector<grid::LineId> restores;
  /// Demand multiplier applied to every bus's pd/qd relative to the
  /// BASE grid (not the previous stage): 1.0 = case-file loading.
  double load_scale = 1.0;
  /// Solved load states and noisy samples per state streamed during
  /// the stage (states x samples_per_state samples total).
  size_t states = 3;
  size_t samples_per_state = 4;
  /// Transport faults injected while this stage streams (drawn
  /// deterministically from the scenario seed).
  sim::FaultScheduleOptions faults;
};

/// A named, seeded sequence of cascade stages over one dataset's grid.
struct CascadeScenario {
  std::string name;
  uint64_t seed = 0;
  std::vector<CascadeStage> stages;
};

/// Per-stage outcome of a cascade replay: detection latency, set-level
/// identification quality against the cumulative outage set, and the
/// fault/rejection tallies for the stage.
struct CascadeStageScore {
  std::string scenario;
  std::string stage;
  size_t stage_index = 0;
  size_t samples = 0;  ///< samples streamed during the stage
  /// In-stage index of the first sample whose raw detection flagged an
  /// outage (0 = the stage's first sample); -1 when no sample did or
  /// the stage's true outage set is empty (nothing to detect).
  int64_t time_to_detect = -1;
  /// Mean set-level precision/recall (eval::ScoreSet) of the raw
  /// per-sample identified sets against the stage's cumulative outage
  /// truth; rejected samples score as empty predictions.
  double set_precision = 0.0;
  double set_recall = 0.0;
  /// Mean Eq. 12 identification accuracy against the same truth.
  double localization_accuracy = 0.0;
  uint64_t faults_injected = 0;
  uint64_t samples_rejected = 0;
  uint64_t screened_nodes = 0;
};

/// Knobs of a cascade replay. The simulation options should match the
/// corpus the detector was trained on (the defaults match
/// DatasetOptions' defaults).
struct CascadeOptions {
  sim::SimulationOptions simulation;
  detect::StreamOptions stream;
};

/// Replays `scenario` against the trained detector as one continuous
/// tenant stream: each stage re-derives the in-service topology from
/// the cumulative trip/restore set (Grid::WithLineOut on the ramped
/// base grid), simulates the stage's samples at that operating
/// point, runs them through the stage's fault injector, and scores the
/// debounced session per stage. Deterministic given (dataset,
/// scenario.seed). Sample-level rejections are tallied, not fatal;
/// power-flow divergence at an infeasible stage still propagates.
PW_NODISCARD Result<std::vector<CascadeStageScore>> RunCascadeScenario(
    const Dataset& dataset, TrainedMethods& methods,
    const CascadeScenario& scenario, const CascadeOptions& options = {});

/// Three seeded sequences over the dataset's grid, picking safe
/// (non-islanding) lines from the dataset's valid cases:
///   double_trip       steady -> first trip -> dependent second trip
///   cascade_reconfig  trip -> dependent trip -> first line restored
///   ramp_chaos        load ramp -> trip under ramp + gross errors ->
///                     deeper ramp + non-finite payloads
std::vector<CascadeScenario> DefaultCascadeScenarios(const Dataset& dataset);

}  // namespace phasorwatch::eval

#endif  // PHASORWATCH_EVAL_CASCADE_H_
