#include "sim/measurement.h"

#include <string>

#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "powerflow/powerflow.h"

namespace phasorwatch::sim {

void PhasorDataSet::Append(const PhasorDataSet& other) {
  if (vm.empty()) {
    *this = other;
    return;
  }
  PW_CHECK_EQ(num_nodes(), other.num_nodes());
  vm = vm.ConcatCols(other.vm);
  va = va.ConcatCols(other.va);
}

Result<PhasorDataSet> SimulateMeasurements(const grid::Grid& grid,
                                           const SimulationOptions& options,
                                           Rng& rng) {
  PW_TRACE_SCOPE("sim.simulate_us");
  const size_t n = grid.num_buses();
  const size_t num_states = options.load.num_states;
  const size_t per_state = options.samples_per_state;
  if (num_states == 0 || per_state == 0) {
    return Status::InvalidArgument("empty simulation requested");
  }

  linalg::Matrix multipliers = GenerateLoadMultipliers(grid, options.load, rng);

  // The topology is the same for every load state, so one admittance
  // serves them all.
  const grid::SparseAdmittance ybus = grid.BuildSparseAdmittance();

  PhasorDataSet out;
  out.vm = linalg::Matrix(n, num_states * per_state);
  out.va = linalg::Matrix(n, num_states * per_state);

  size_t solved = 0;
  size_t col = 0;
  for (size_t t = 0; t < num_states; ++t) {
    pf::InjectionOverrides overrides;
    overrides.pd_mw.resize(n);
    overrides.qd_mvar.resize(n);
    for (size_t i = 0; i < n; ++i) {
      overrides.pd_mw[i] = grid.bus(i).pd_mw * multipliers(i, t);
      overrides.qd_mvar[i] = grid.bus(i).qd_mvar * multipliers(i, t);
    }
    overrides.pg_mw = pf::BalanceGeneration(grid, overrides.pd_mw);

    auto solution = pf::SolveAcPowerFlow(grid, ybus, {}, overrides);
    if (!solution.ok()) {
      // Skip states that do not converge; the case is invalidated below
      // only if most states fail.
      PW_OBS_COUNTER_INC("sim.load_states_failed");
      continue;
    }
    ++solved;
    PW_OBS_COUNTER_INC("sim.load_states_solved");
    PW_OBS_COUNTER_ADD("sim.samples_generated", per_state);
    for (size_t s = 0; s < per_state; ++s) {
      for (size_t i = 0; i < n; ++i) {
        out.vm(i, col) =
            solution->vm[i] + rng.Normal(0.0, options.noise.vm_stddev);
        out.va(i, col) =
            solution->va_rad[i] + rng.Normal(0.0, options.noise.va_stddev);
      }
      ++col;
    }
  }

  if (solved < (num_states + 1) / 2) {
    return Status::NotConverged(
        "only " + std::to_string(solved) + "/" + std::to_string(num_states) +
        " load states solved for " + grid.name());
  }
  if (col < out.vm.cols()) {
    std::vector<size_t> keep(col);
    for (size_t i = 0; i < col; ++i) keep[i] = i;
    out.vm = out.vm.SelectCols(keep);
    out.va = out.va.SelectCols(keep);
  }
  return out;
}

Result<PhasorDataSet> SolveForecastState(const grid::Grid& grid) {
  PW_ASSIGN_OR_RETURN(pf::PowerFlowSolution sol, pf::SolveAcPowerFlow(grid));
  PhasorDataSet out;
  out.vm = linalg::Matrix(grid.num_buses(), 1);
  out.va = linalg::Matrix(grid.num_buses(), 1);
  for (size_t i = 0; i < grid.num_buses(); ++i) {
    out.vm(i, 0) = sol.vm[i];
    out.va(i, 0) = sol.va_rad[i];
  }
  return out;
}

}  // namespace phasorwatch::sim
