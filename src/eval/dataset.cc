#include "eval/dataset.h"

#include <optional>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace phasorwatch::eval {
namespace {

// One condition's train+test blocks from independent scenario draws.
Result<CaseData> SimulateCase(const grid::Grid& grid,
                              const DatasetOptions& options, Rng& rng) {
  CaseData data;
  sim::SimulationOptions sim_opts = options.simulation;

  sim_opts.load.num_states = options.train_states;
  sim_opts.samples_per_state = options.train_samples_per_state;
  Rng train_rng = rng.Fork();
  PW_ASSIGN_OR_RETURN(
      data.train, sim::SimulateMeasurements(grid, sim_opts, train_rng));

  sim_opts.load.num_states = options.test_states;
  sim_opts.samples_per_state = options.test_samples_per_state;
  Rng test_rng = rng.Fork();
  PW_ASSIGN_OR_RETURN(
      data.test, sim::SimulateMeasurements(grid, sim_opts, test_rng));
  return data;
}

}  // namespace

Result<Dataset> BuildDataset(const grid::Grid& grid,
                             const DatasetOptions& options, uint64_t seed) {
  PW_TRACE_SCOPE("dataset.build_us");
  Dataset dataset;
  dataset.grid = &grid;

  // Seed-stream layout: stream 0 is the normal condition, stream 1 + i
  // is line i of grid.lines(). Each case owns its stream, so the
  // corpus is bit-identical at every parallelism degree (and a skipped
  // case never shifts its neighbors' draws).
  Rng normal_rng = Rng::Fork(seed, 0);
  PW_ASSIGN_OR_RETURN(dataset.normal,
                      SimulateCase(grid, options, normal_rng));

  const std::vector<grid::LineId>& lines = grid.lines();
  // Per-line result slots, filled by the pool in whatever order cases
  // finish; the append below walks them in line order so `outages` and
  // `skipped_lines` never depend on scheduling.
  std::vector<std::optional<CaseData>> slots(lines.size());
  ThreadPool pool(ResolveParallelism(options.parallelism));
  PW_RETURN_IF_ERROR(pool.ParallelFor(
      lines.size(), [&](size_t i) -> Status {
        // Islanding lines are invalid cases (Sec. V-A).
        auto outage_grid = grid.WithLineOut(lines[i]);
        if (!outage_grid.ok()) return Status::OK();  // empty slot = skipped
        Rng case_rng = Rng::Fork(seed, 1 + i);
        auto case_data = SimulateCase(*outage_grid, options, case_rng);
        if (!case_data.ok()) {
          // Post-outage power flow failed to converge often enough.
          return Status::OK();
        }
        case_data->line = lines[i];
        slots[i] = std::move(case_data).value();
        return Status::OK();
      }));

  for (size_t i = 0; i < lines.size(); ++i) {
    if (slots[i].has_value()) {
      dataset.outages.push_back(std::move(*slots[i]));
      PW_OBS_COUNTER_INC("dataset.cases_built");
    } else {
      dataset.skipped_lines.push_back(lines[i]);
      PW_OBS_COUNTER_INC("dataset.cases_skipped");
    }
  }

  if (dataset.outages.empty()) {
    return Status::FailedPrecondition("no valid outage case for " +
                                      grid.name());
  }
  PW_OBS_COUNTER_ADD(
      "dataset.samples_built",
      dataset.normal.train.num_samples() + dataset.normal.test.num_samples());
  PW_LOG(Info) << grid.name() << ": " << dataset.outages.size()
               << " valid outage cases, " << dataset.skipped_lines.size()
               << " skipped";
  return dataset;
}

}  // namespace phasorwatch::eval
