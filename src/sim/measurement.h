#ifndef PHASORWATCH_SIM_MEASUREMENT_H_
#define PHASORWATCH_SIM_MEASUREMENT_H_

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "grid/grid.h"
#include "linalg/matrix.h"
#include "sim/load_model.h"

namespace phasorwatch::sim {

/// A block of synchrophasor measurements: rows are power nodes, columns
/// are time instants (the paper's data matrix X, carried for both phasor
/// channels).
struct PhasorDataSet {
  linalg::Matrix vm;      ///< voltage magnitudes (pu), num_buses x T
  linalg::Matrix va;      ///< voltage angles (rad), num_buses x T

  size_t num_nodes() const { return vm.rows(); }
  size_t num_samples() const { return vm.cols(); }

  /// Column t of both channels as (vm, va) vectors.
  std::pair<linalg::Vector, linalg::Vector> Sample(size_t t) const {
    return {vm.Col(t), va.Col(t)};
  }

  /// Appends the columns of `other` (same node count).
  void Append(const PhasorDataSet& other);
};

/// Measurement-noise model: independent Gaussian noise per channel,
/// calibrated to a ~1% total-vector-error class PMU.
struct NoiseModel {
  double vm_stddev = 0.002;   ///< pu
  double va_stddev = 0.003;   ///< rad
};

/// Controls synthetic data generation for one operating condition.
struct SimulationOptions {
  LoadModelOptions load;
  NoiseModel noise;
  size_t samples_per_state = 8;  ///< PMU samples drawn per solved state
};

/// Generates PMU measurements for the given grid (normal operation or a
/// post-outage grid): draws load states, solves the AC power flow per
/// state, then emits `samples_per_state` noisy phasor samples around each
/// solved state. Fails with kNotConverged if too few states solve (an
/// invalid outage case in the paper's sense). The admittance matrix is
/// assembled once from `grid` and shared by every load state.
PW_NODISCARD Result<PhasorDataSet> SimulateMeasurements(
    const grid::Grid& grid, const SimulationOptions& options, Rng& rng);

/// Convenience: the deterministic forecast state (no load variation, no
/// noise) as a single-column data set.
PW_NODISCARD Result<PhasorDataSet> SolveForecastState(const grid::Grid& grid);

}  // namespace phasorwatch::sim

#endif  // PHASORWATCH_SIM_MEASUREMENT_H_
