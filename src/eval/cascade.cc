#include "eval/cascade.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "common/status.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "powerflow/powerflow.h"

namespace phasorwatch::eval {
namespace {

// Copy of the base grid with every bus's demand scaled (generation and
// topology untouched) — the load-ramp stages of a cascade.
Result<grid::Grid> ScaledGrid(const grid::Grid& base, double scale) {
  if (scale == 1.0) return base;
  std::vector<grid::Bus> buses = base.buses();
  for (grid::Bus& bus : buses) {
    bus.pd_mw *= scale;
    bus.qd_mvar *= scale;
  }
  return grid::Grid::Create(base.name(), std::move(buses), base.branches(),
                            base.base_mva());
}

// True when the double-outage grid still solves its AC power flow at
// base load and under the deepest default ramp — picking a pair that is
// topologically fine but electrically infeasible would abort the whole
// scenario with kNotConverged mid-replay.
bool DoubleOutageFeasible(const grid::Grid& doubled) {
  for (double scale : {1.0, 1.2}) {
    Result<grid::Grid> ramped = ScaledGrid(doubled, scale);
    if (!ramped.ok() || !pf::SolveAcPowerFlow(ramped.value()).ok()) {
      return false;
    }
  }
  return true;
}

// First pair of valid single-outage case lines that share no endpoint,
// whose sequential removal keeps the grid connected, and whose joint
// outage still converges — the raw material for the default cascade
// sequences.
bool PickSafePair(const Dataset& dataset, grid::LineId* a, grid::LineId* b) {
  const grid::Grid& grid = *dataset.grid;
  for (size_t i = 0; i < dataset.outages.size(); ++i) {
    const grid::LineId& first = dataset.outages[i].line;
    Result<grid::Grid> without_first = grid.WithLineOut(first);
    if (!without_first.ok()) continue;
    for (size_t j = i + 1; j < dataset.outages.size(); ++j) {
      const grid::LineId& second = dataset.outages[j].line;
      if (second.i == first.i || second.i == first.j ||
          second.j == first.i || second.j == first.j) {
        continue;  // disjoint endpoints keep the two signatures separable
      }
      if (without_first.value().WouldIsland(second)) continue;
      Result<grid::Grid> without_both =
          without_first.value().WithLineOut(second);
      if (!without_both.ok() || !DoubleOutageFeasible(without_both.value())) {
        continue;
      }
      *a = first;
      *b = second;
      return true;
    }
  }
  return false;
}

}  // namespace

Result<std::vector<CascadeStageScore>> RunCascadeScenario(
    const Dataset& dataset, TrainedMethods& methods,
    const CascadeScenario& scenario, const CascadeOptions& options) {
  PW_TRACE_SCOPE("cascade.scenario_us");
  const grid::Grid& base = *dataset.grid;
  const size_t n = base.num_buses();
  if (scenario.stages.empty()) {
    return Status::InvalidArgument("cascade scenario has no stages");
  }

  // One continuous tenant stream across all stages: the debounce and
  // vote state carry over stage boundaries exactly as they would for an
  // operator watching a real cascade unfold. The session borrows the
  // trained detector (aliasing, non-owning).
  std::shared_ptr<detect::OutageDetector> detector(
      std::shared_ptr<void>(), &methods.detector());
  detect::TenantSession session(detector, options.stream, scenario.name);

  std::vector<CascadeStageScore> scores;
  scores.reserve(scenario.stages.size());
  std::vector<grid::LineId> out;  // cumulative tripped set

  for (size_t stage_idx = 0; stage_idx < scenario.stages.size(); ++stage_idx) {
    const CascadeStage& stage = scenario.stages[stage_idx];
    // Apply the stage's topology delta to the cumulative set.
    for (const grid::LineId& line : stage.restores) {
      auto it = std::find(out.begin(), out.end(), line);
      if (it == out.end()) {
        return Status::InvalidArgument(
            "cascade stage '" + stage.name + "' restores " +
            base.LineName(line) + ", which is not tripped");
      }
      out.erase(it);
    }
    for (const grid::LineId& line : stage.trips) {
      if (std::find(out.begin(), out.end(), line) != out.end()) {
        return Status::InvalidArgument(
            "cascade stage '" + stage.name + "' trips " +
            base.LineName(line) + " twice");
      }
      out.push_back(line);
    }

    // Stage operating point: demand ramped against the base grid, then
    // the cumulative outage set taken out.
    PW_ASSIGN_OR_RETURN(grid::Grid current,
                        ScaledGrid(base, stage.load_scale));
    for (const grid::LineId& line : out) {
      PW_ASSIGN_OR_RETURN(current, current.WithLineOut(line));
    }

    // Simulate the stage's stream at that operating point.
    sim::SimulationOptions sim_options = options.simulation;
    sim_options.load.num_states = stage.states;
    sim_options.samples_per_state = stage.samples_per_state;
    const uint64_t stage_seed =
        scenario.seed ^ 0xCA5CADE5EEDull ^
        (static_cast<uint64_t>(stage_idx) << 32);
    Rng sim_rng = Rng::Fork(stage_seed, 0);
    PW_ASSIGN_OR_RETURN(
        sim::PhasorDataSet block,
        sim::SimulateMeasurements(current, sim_options, sim_rng));

    // Stage-scoped transport faults, chaos-harness style: one seed
    // stream draws the schedule, an independent one the corruption.
    std::vector<sim::MissingMask> masks;
    PW_ASSIGN_OR_RETURN(
        sim::FaultSchedule schedule,
        sim::MakeRandomFaultSchedule(stage.faults, n, block.num_samples(),
                                     stage_seed + 1));
    PW_ASSIGN_OR_RETURN(
        sim::FaultInjector injector,
        sim::FaultInjector::Create(std::move(schedule), n,
                                   block.num_samples(), stage_seed + 2));
    PW_RETURN_IF_ERROR(injector.ApplyToDataSet(&block, &masks));

    CascadeStageScore score;
    score.scenario = scenario.name;
    score.stage = stage.name;
    score.stage_index = stage_idx;
    score.faults_injected = injector.stats().injected;
    const std::vector<grid::LineId>& truth = out;
    const std::vector<grid::LineId> empty_prediction;
    double precision_sum = 0.0, recall_sum = 0.0, ia_sum = 0.0;

    for (size_t s = 0; s < block.num_samples(); ++s) {
      auto [vm, va] = block.Sample(s);
      PW_ASSIGN_OR_RETURN(detect::StreamEvent event,
                          session.Process(vm, va, masks[s]));
      ++score.samples;
      const std::vector<grid::LineId>& predicted =
          event.sample_rejected ? empty_prediction : event.raw.lines;
      if (event.sample_rejected) {
        ++score.samples_rejected;
      } else {
        score.screened_nodes += event.raw.screened_nodes;
        if (event.raw.outage_detected && score.time_to_detect < 0 &&
            !truth.empty()) {
          score.time_to_detect = static_cast<int64_t>(s);
        }
      }
      SetMetrics set = ScoreSet(truth, predicted);
      precision_sum += set.precision;
      recall_sum += set.recall;
      ia_sum += ScoreSample(truth, predicted).identification_accuracy;
    }
    if (score.samples > 0) {
      const double count = static_cast<double>(score.samples);
      score.set_precision = precision_sum / count;
      score.set_recall = recall_sum / count;
      score.localization_accuracy = ia_sum / count;
    }
    PW_OBS_COUNTER_INC("cascade.stages");
    PW_OBS_COUNTER_ADD("cascade.samples", score.samples);
    if (score.time_to_detect >= 0) {
      PW_OBS_QUANTILE_RECORD("cascade.ttd_samples",
                             static_cast<double>(score.time_to_detect));
    }
    scores.push_back(std::move(score));
  }
  return scores;
}

std::vector<CascadeScenario> DefaultCascadeScenarios(const Dataset& dataset) {
  std::vector<CascadeScenario> scenarios;
  grid::LineId first, second;
  if (!PickSafePair(dataset, &first, &second)) {
    return scenarios;  // grid too small for a safe double: nothing to run
  }

  {
    CascadeScenario s;
    s.name = "double_trip";
    s.seed = 0xCA5CADE1ull;
    s.stages.push_back({"steady", {}, {}, 1.0, 2, 4, {}});
    s.stages.push_back({"first_trip", {first}, {}, 1.0, 3, 4, {}});
    s.stages.push_back({"second_trip", {second}, {}, 1.0, 3, 4, {}});
    scenarios.push_back(std::move(s));
  }
  {
    CascadeScenario s;
    s.name = "cascade_reconfig";
    s.seed = 0xCA5CADE2ull;
    s.stages.push_back({"first_trip", {first}, {}, 1.0, 3, 4, {}});
    s.stages.push_back({"dependent_trip", {second}, {}, 1.0, 3, 4, {}});
    s.stages.push_back({"reconfigure", {}, {first}, 1.0, 3, 4, {}});
    scenarios.push_back(std::move(s));
  }
  {
    CascadeScenario s;
    s.name = "ramp_chaos";
    s.seed = 0xCA5CADE3ull;
    sim::FaultScheduleOptions gross;
    gross.gross_errors = 2;
    sim::FaultScheduleOptions non_finite;
    non_finite.non_finite = 1;
    s.stages.push_back({"ramp", {}, {}, 1.1, 2, 4, {}});
    s.stages.push_back({"trip_under_ramp", {first}, {}, 1.15, 3, 4, gross});
    s.stages.push_back({"deep_ramp", {}, {}, 1.2, 3, 4, non_finite});
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace phasorwatch::eval
