#ifndef PHASORWATCH_GRID_GRID_H_
#define PHASORWATCH_GRID_GRID_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "linalg/complex_matrix.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace phasorwatch::grid {

/// Power-flow role of a bus.
enum class BusType {
  kSlack,  ///< reference bus: fixed |V| and angle, balances the system
  kPV,     ///< generator bus: fixed P injection and |V|
  kPQ,     ///< load bus: fixed P and Q injection
};

/// One power node (generator, load, or substation). Quantities follow the
/// IEEE common data format: powers in MW/MVAr, voltages in per-unit.
struct Bus {
  int id = 0;                     ///< external 1-based bus number
  BusType type = BusType::kPQ;
  double pd_mw = 0.0;             ///< active power demand
  double qd_mvar = 0.0;           ///< reactive power demand
  double gs_mw = 0.0;             ///< shunt conductance (MW at V=1 pu)
  double bs_mvar = 0.0;           ///< shunt susceptance (MVAr at V=1 pu)
  double pg_mw = 0.0;             ///< scheduled generation (PV/slack)
  double qg_mvar = 0.0;           ///< generator reactive output (solved)
  double vm_setpoint = 1.0;       ///< |V| setpoint for PV/slack buses
  double base_kv = 0.0;
  /// Generator reactive capability (MVAr). Equal values (the default)
  /// mean "no limit declared"; the solver then never switches the bus.
  double qmax_mvar = 0.0;
  double qmin_mvar = 0.0;

  bool HasQLimits() const { return qmax_mvar > qmin_mvar; }
};

/// One transmission line or transformer branch (π-model, per-unit).
struct Branch {
  int from_bus = 0;        ///< external id of the from end
  int to_bus = 0;          ///< external id of the to end
  double r = 0.0;          ///< series resistance (pu)
  double x = 0.0;          ///< series reactance (pu)
  double b = 0.0;          ///< total line-charging susceptance (pu)
  double tap = 0.0;        ///< off-nominal tap ratio; 0 means 1.0 (a line)
  double shift_deg = 0.0;  ///< phase-shift angle (degrees)
  bool in_service = true;
};

/// Identifies a power line by the *internal* indices of its endpoints.
/// Normalized so that i <= j; comparable and hashable for use in the
/// outage sets F and F-hat.
struct LineId {
  size_t i = 0;
  size_t j = 0;

  LineId() = default;
  LineId(size_t a, size_t b) : i(a < b ? a : b), j(a < b ? b : a) {}

  friend bool operator==(const LineId&, const LineId&) = default;
  friend auto operator<=>(const LineId&, const LineId&) = default;
};

/// Internal indices of one branch's two ends.
struct BranchEnds {
  size_t from = 0;
  size_t to = 0;
};

/// Sparse bus admittance matrix: real and imaginary parts of Ybus in
/// CSR form with one shared pattern. The pattern covers every branch
/// — in service or not — plus every diagonal, so out-of-service
/// branches hold explicit zero slots and an outage grid keeps its base
/// grid's pattern. The power-flow Jacobian pattern, and with it the
/// sparse LU's elimination order, is derived from this one, so the
/// reserved slots are part of every sparse solve's bits.
struct SparseAdmittance {
  linalg::CsrMatrix g;  ///< Re(Ybus), per-unit
  linalg::CsrMatrix b;  ///< Im(Ybus), same pattern as g
};

/// The transmission-level grid graph P(N, E) plus electrical data.
///
/// Buses are addressed internally by dense 0-based indices; external ids
/// from the IEEE case tables are preserved for reporting. Create resolves
/// each branch's external end ids to internal indices once; every
/// topology reader uses those (branch_ends()). The class owns topology
/// queries (neighbors, connectivity, islanding) and the admittance-matrix
/// builders that encode line status (Eq. 1's Y).
class Grid {
 public:
  /// Validates and indexes the case data. Fails on duplicate/unknown bus
  /// ids, non-positive reactances, missing slack, or a disconnected
  /// in-service topology.
  PW_NODISCARD static Result<Grid> Create(std::string name,
                                          std::vector<Bus> buses,
                                          std::vector<Branch> branches,
                                          double base_mva = 100.0);

  const std::string& name() const { return name_; }
  double base_mva() const { return base_mva_; }

  size_t num_buses() const { return buses_.size(); }
  size_t num_branches() const { return branches_.size(); }
  /// Number of distinct power lines (parallel branches collapse into one
  /// line for outage purposes).
  size_t num_lines() const { return lines_.size(); }

  const std::vector<Bus>& buses() const { return buses_; }
  const std::vector<Branch>& branches() const { return branches_; }
  /// Internal end indices of every branch, parallel to branches().
  const std::vector<BranchEnds>& branch_ends() const { return branch_ends_; }
  const Bus& bus(size_t idx) const { return buses_[idx]; }

  /// Internal index for an external bus id.
  PW_NODISCARD Result<size_t> BusIndex(int external_id) const;

  /// Distinct lines as normalized internal-endpoint pairs, sorted.
  const std::vector<LineId>& lines() const { return lines_; }

  /// Internal indices of buses adjacent to `bus_idx` via in-service
  /// branches.
  const std::vector<size_t>& Neighbors(size_t bus_idx) const;

  /// Internal index of the slack bus.
  size_t SlackBus() const { return slack_; }

  /// True if all buses are connected through in-service branches.
  bool IsConnected() const;

  /// True if removing `line` would split the grid (checked on the
  /// in-service topology).
  bool WouldIsland(const LineId& line) const;

  /// Copy of this grid with every branch between the endpoints of `line`
  /// taken out of service. Fails with kIslanded if that disconnects the
  /// grid, and with kNotFound if no such in-service line exists, so the
  /// result is always a connected grid.
  PW_NODISCARD Result<Grid> WithLineOut(const LineId& line) const;

  /// Bus admittance matrix Ybus (per-unit) over in-service branches,
  /// including line charging, taps, phase shifts, and bus shunts. The
  /// solvers use BuildSparseAdmittance(); this dense build is the
  /// reference the bit-exact Ybus tests compare it against.
  linalg::ComplexMatrix BuildAdmittanceMatrix() const;

  /// Sparse Ybus over in-service branches. Values are bit-identical
  /// to BuildAdmittanceMatrix(): contributions are accumulated per
  /// entry in the same branch-declaration order, with bus shunts added
  /// last. The pattern additionally reserves zero slots for
  /// out-of-service branches (see SparseAdmittance).
  SparseAdmittance BuildSparseAdmittance() const;

  /// Weighted graph Laplacian using 1/x as edge weights (the DC
  /// approximation's B' matrix without slack reduction).
  linalg::Matrix BuildSusceptanceLaplacian() const;

  /// Total in-service demand (MW).
  double TotalLoadMw() const;
  /// Total scheduled generation (MW).
  double TotalGenMw() const;

  /// Human-readable name like "line 4-7" using external bus ids.
  std::string LineName(const LineId& line) const;

 private:
  Grid() = default;
  void RebuildDerived();

  std::string name_;
  double base_mva_ = 100.0;
  std::vector<Bus> buses_;
  std::vector<Branch> branches_;
  std::vector<BranchEnds> branch_ends_;  // parallel to branches_
  std::vector<LineId> lines_;
  std::vector<std::vector<size_t>> adjacency_;
  size_t slack_ = 0;
};

}  // namespace phasorwatch::grid

#endif  // PHASORWATCH_GRID_GRID_H_
