#ifndef PHASORWATCH_POWERFLOW_POWERFLOW_H_
#define PHASORWATCH_POWERFLOW_POWERFLOW_H_

#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "grid/grid.h"
#include "linalg/matrix.h"

namespace phasorwatch::pf {

/// Convergence test of the Newton-Raphson solve: max |mismatch| in
/// per-unit power.
inline constexpr double kMismatchTolerance = 1e-8;

/// Options for the Newton-Raphson AC power-flow solver. Every solve
/// starts flat: Vm = 1 on PQ buses (setpoint on PV and slack), Va = 0.
struct PowerFlowOptions {
  /// Picks the factorization of the Newton Jacobian, which is always
  /// assembled on the sparse Ybus pattern: grids with at least this
  /// many buses use the fill-reducing sparse LU, smaller ones the dense
  /// partial-pivoting LU; 0 keeps every grid on the dense LU. The
  /// default keeps every IEEE evaluation system (14-118) on the dense
  /// LU, so small-grid results — including the golden figure tables —
  /// stay bit-identical, while 300/1000-bus synthetics switch over.
  /// The two factorizations agree to the tolerances documented in
  /// docs/SPARSE.md (they differ only by elimination-order rounding).
  size_t sparse_bus_threshold = 200;
};

/// Per-bus operating point overrides. Empty vectors mean "use the values
/// stored in the Grid". Used by the measurement simulator to sweep load
/// scenarios without rebuilding grids.
struct InjectionOverrides {
  std::vector<double> pd_mw;    ///< demand overrides, size num_buses
  std::vector<double> qd_mvar;  ///< demand overrides, size num_buses
  std::vector<double> pg_mw;    ///< generation overrides, size num_buses
};

/// Solved AC operating point.
struct PowerFlowSolution {
  linalg::Vector vm;        ///< voltage magnitudes (pu), by bus index
  linalg::Vector va_rad;    ///< voltage angles (radians), by bus index
  linalg::Vector p_mw;      ///< net active injection per bus (MW)
  linalg::Vector q_mvar;    ///< net reactive injection per bus (MVAr)
  int iterations = 0;
  double final_mismatch = 0.0;

  /// Residual of the AC power balance at PQ/PV buses, recomputed from
  /// scratch (diagnostic for tests).
  double slack_p_mw = 0.0;  ///< active power picked up by the slack bus
};

/// Full AC power flow via Newton-Raphson in polar form.
///
/// Solves for voltage magnitudes at PQ buses and angles at all non-slack
/// buses so that specified injections match computed injections through
/// the admittance matrix. Fails with kNotConverged when the mismatch does
/// not reach kMismatchTolerance within 30 iterations (heavily loaded
/// post-outage states legitimately diverge — the caller treats these as
/// invalid outage cases, matching the paper's case filtering) and with
/// kSingular when the Jacobian degenerates.
PW_NODISCARD Result<PowerFlowSolution> SolveAcPowerFlow(
    const grid::Grid& grid, const PowerFlowOptions& options = {},
    const InjectionOverrides& overrides = {});

/// As SolveAcPowerFlow, but reuses a prebuilt sparse admittance matrix
/// (grid.BuildSparseAdmittance()) instead of assembling one per call, so
/// a caller solving many load states of one topology assembles it once.
/// `ybus` must describe exactly `grid`'s in-service topology; results
/// are bit-identical to the overload above, which assembles it.
PW_NODISCARD Result<PowerFlowSolution> SolveAcPowerFlow(
    const grid::Grid& grid, const grid::SparseAdmittance& ybus,
    const PowerFlowOptions& options = {},
    const InjectionOverrides& overrides = {});

/// Scales PV-bus generation so total scheduled generation tracks the
/// scaled demand (the paper adjusts output power to follow daily load).
/// Returns pg overrides aligned with the grid's bus indexing.
std::vector<double> BalanceGeneration(const grid::Grid& grid,
                                      const std::vector<double>& pd_mw);

}  // namespace phasorwatch::pf

#endif  // PHASORWATCH_POWERFLOW_POWERFLOW_H_
