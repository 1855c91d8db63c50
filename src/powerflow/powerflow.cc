#include "powerflow/powerflow.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/status.h"
#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace phasorwatch::pf {
namespace {

using grid::Bus;
using grid::BusType;
using grid::Grid;
using linalg::Matrix;
using linalg::Vector;

// Resolves the effective per-bus net scheduled injections (generation
// minus demand, per-unit) after applying overrides.
struct ScheduledInjections {
  Vector p_pu;  // net active injection
  Vector q_pu;  // net reactive injection (meaningful at PQ buses)
};

Result<ScheduledInjections> ResolveInjections(
    const Grid& grid, const InjectionOverrides& overrides) {
  const size_t n = grid.num_buses();
  auto check_size = [&](const std::vector<double>& v,
                        const char* what) -> Status {
    if (!v.empty() && v.size() != n) {
      return Status::InvalidArgument(std::string(what) +
                                     " override size mismatch");
    }
    return Status::OK();
  };
  PW_RETURN_IF_ERROR(check_size(overrides.pd_mw, "pd"));
  PW_RETURN_IF_ERROR(check_size(overrides.qd_mvar, "qd"));
  PW_RETURN_IF_ERROR(check_size(overrides.pg_mw, "pg"));

  ScheduledInjections out;
  out.p_pu = Vector(n);
  out.q_pu = Vector(n);
  for (size_t i = 0; i < n; ++i) {
    const Bus& bus = grid.bus(i);
    double pd = overrides.pd_mw.empty() ? bus.pd_mw : overrides.pd_mw[i];
    double qd = overrides.qd_mvar.empty() ? bus.qd_mvar : overrides.qd_mvar[i];
    double pg = overrides.pg_mw.empty() ? bus.pg_mw : overrides.pg_mw[i];
    out.p_pu[i] = (pg - pd) / grid.base_mva();
    out.q_pu[i] = -qd / grid.base_mva();  // PQ buses: generator Q unknown
  }
  return out;
}

// Newton-Raphson iteration budget; heavily loaded post-outage states
// that need more are invalid cases, not slow ones.
constexpr int kMaxIterations = 30;

// Core Newton-Raphson solve of the grid's bus types against the
// scheduled injections (per-unit).
//
// The Jacobian is assembled directly into a CSR pattern derived once
// from the Ybus adjacency (over the P/Q index sets); every iteration
// only refreshes its values, in O(nnz). The grid size picks only the
// factorization: below options.sparse_bus_threshold the pattern is
// scattered into a dense matrix for the partial-pivoting LU, at or
// above it a fill-reducing sparse LU refactors the CSR matrix in
// O(factor nnz), which is what makes 300/1000-bus outage sweeps
// feasible.
Result<PowerFlowSolution> SolveAcCore(const Grid& grid,
                                      const grid::SparseAdmittance& ybus,
                                      const PowerFlowOptions& options,
                                      const ScheduledInjections& sched) {
  const size_t n = grid.num_buses();
  PW_CHECK_EQ(ybus.g.rows(), n);
  PW_CHECK_EQ(ybus.g.NumNonZeros(), ybus.b.NumNonZeros());

  // Index sets and their inverse maps: PV+PQ buses contribute a P
  // equation (angle unknown); PQ buses additionally contribute a Q
  // equation (magnitude unknown).
  std::vector<size_t> p_buses;  // non-slack
  std::vector<size_t> q_buses;  // PQ only
  constexpr size_t kAbsent = static_cast<size_t>(-1);
  std::vector<size_t> pos_p(n, kAbsent);
  std::vector<size_t> pos_q(n, kAbsent);
  for (size_t i = 0; i < n; ++i) {
    const BusType type = grid.bus(i).type;
    if (type != BusType::kSlack) {
      pos_p[i] = p_buses.size();
      p_buses.push_back(i);
    }
    if (type == BusType::kPQ) {
      pos_q[i] = q_buses.size();
      q_buses.push_back(i);
    }
  }
  const size_t np = p_buses.size();
  const size_t nq = q_buses.size();

  const std::vector<size_t>& yrs = ybus.g.RowStartArray();
  const std::vector<size_t>& yci = ybus.g.ColIndexArray();
  const std::vector<double>& gv = ybus.g.ValueArray();
  const std::vector<double>& bv = ybus.b.ValueArray();

  // Jacobian pattern [[H, N], [J, L]] from the Ybus adjacency,
  // computed once; every iteration only refreshes values in place.
  std::vector<std::pair<size_t, size_t>> jpattern;
  jpattern.reserve(4 * ybus.g.NumNonZeros());
  for (size_t i = 0; i < n; ++i) {
    for (size_t s = yrs[i]; s < yrs[i + 1]; ++s) {
      const size_t k = yci[s];
      if (pos_p[i] != kAbsent) {
        if (pos_p[k] != kAbsent) jpattern.emplace_back(pos_p[i], pos_p[k]);
        if (pos_q[k] != kAbsent) jpattern.emplace_back(pos_p[i], np + pos_q[k]);
      }
      if (pos_q[i] != kAbsent) {
        if (pos_p[k] != kAbsent) jpattern.emplace_back(np + pos_q[i], pos_p[k]);
        if (pos_q[k] != kAbsent) {
          jpattern.emplace_back(np + pos_q[i], np + pos_q[k]);
        }
      }
    }
  }
  linalg::CsrMatrix jac =
      linalg::CsrMatrix::FromPattern(np + nq, np + nq, std::move(jpattern));

  // Per-slot metadata: the bus pair behind each Jacobian entry and the
  // Ybus slot holding g(i,j)/b(i,j), so the refresh loop is a flat
  // pass with no searches.
  const size_t jnnz = jac.NumNonZeros();
  const std::vector<size_t>& jrs = jac.RowStartArray();
  const std::vector<size_t>& jci = jac.ColIndexArray();
  std::vector<size_t> meta_i(jnnz), meta_j(jnnz), meta_y(jnnz);
  for (size_t row = 0; row < np + nq; ++row) {
    const size_t i = row < np ? p_buses[row] : q_buses[row - np];
    for (size_t s = jrs[row]; s < jrs[row + 1]; ++s) {
      const size_t col = jci[s];
      const size_t j = col < np ? p_buses[col] : q_buses[col - np];
      meta_i[s] = i;
      meta_j[s] = j;
      meta_y[s] = ybus.g.EntrySlot(i, j);
    }
  }

  // The factorization. The dense matrix is zeroed once: entries off
  // the pattern stay zero, pattern entries are overwritten every pass.
  const bool sparse_lu = options.sparse_bus_threshold > 0 &&
                         n >= options.sparse_bus_threshold;
  std::optional<linalg::SparseLu> slu;
  linalg::LuDecomposition dlu;
  Matrix dense_jac;
  if (sparse_lu) {
    auto analyzed = linalg::SparseLu::Analyze(jac);
    if (!analyzed.ok()) {
      return Status::Singular("power-flow Jacobian analysis failed: " +
                              analyzed.status().message());
    }
    slu = *std::move(analyzed);
  } else {
    dense_jac = Matrix(np + nq, np + nq);
  }

  Vector vm(n), va(n);
  for (size_t i = 0; i < n; ++i) {
    vm[i] = grid.bus(i).type != BusType::kPQ ? grid.bus(i).vm_setpoint : 1.0;
    va[i] = 0.0;
  }

  // Computed injections at the current state.
  Vector p_calc(n), q_calc(n);
  auto compute_injections = [&]() {
    for (size_t i = 0; i < n; ++i) {
      double p = 0.0, q = 0.0;
      for (size_t s = yrs[i]; s < yrs[i + 1]; ++s) {
        const size_t k = yci[s];
        const double gik = gv[s];
        const double bik = bv[s];
        if (gik == 0.0 && bik == 0.0) continue;
        double theta = va[i] - va[k];
        double c = std::cos(theta);
        double sn = std::sin(theta);
        p += vm[k] * (gik * c + bik * sn);
        q += vm[k] * (gik * sn - bik * c);
      }
      p_calc[i] = vm[i] * p;
      q_calc[i] = vm[i] * q;
    }
  };

  double mismatch_norm = 0.0;
  // Newton scratch, hoisted out of the iteration loop: the value
  // buffer, mismatch and update are sized once, and both LUs refactor
  // into storage they keep, so iterations after the first touch the
  // heap not at all.
  Vector jac_vals(jnnz);
  Vector mismatch(np + nq);
  Vector delta(np + nq);
  int iter = 0;
  // PW_NO_ALLOC_BEGIN(newton-raphson iteration loop)
  for (; iter < kMaxIterations; ++iter) {
    compute_injections();

    mismatch_norm = 0.0;
    for (size_t a = 0; a < np; ++a) {
      mismatch[a] = sched.p_pu[p_buses[a]] - p_calc[p_buses[a]];
      mismatch_norm = std::max(mismatch_norm, std::fabs(mismatch[a]));
    }
    for (size_t a = 0; a < nq; ++a) {
      mismatch[np + a] = sched.q_pu[q_buses[a]] - q_calc[q_buses[a]];
      mismatch_norm = std::max(mismatch_norm, std::fabs(mismatch[np + a]));
    }
    if (mismatch_norm < kMismatchTolerance) break;

    // Refresh the Jacobian values slot by slot; the pattern (and thus
    // the symbolic factorization) never changes.
    for (size_t row = 0; row < np + nq; ++row) {
      const bool p_row = row < np;
      for (size_t s = jrs[row]; s < jrs[row + 1]; ++s) {
        const size_t i = meta_i[s];
        const size_t j = meta_j[s];
        const double gij = gv[meta_y[s]];
        const double bij = bv[meta_y[s]];
        const bool p_col = jci[s] < np;
        double v;
        if (i == j) {
          if (p_row && p_col) {
            v = -q_calc[i] - bij * vm[i] * vm[i];
          } else if (p_row) {
            v = p_calc[i] / vm[i] + gij * vm[i];
          } else if (p_col) {
            v = p_calc[i] - gij * vm[i] * vm[i];
          } else {
            v = q_calc[i] / vm[i] - bij * vm[i];
          }
        } else {
          double theta = va[i] - va[j];
          double c = std::cos(theta);
          double sn = std::sin(theta);
          if (p_row && p_col) {
            v = vm[i] * vm[j] * (gij * sn - bij * c);
          } else if (p_row) {
            v = vm[i] * (gij * c + bij * sn);
          } else if (p_col) {
            v = -vm[i] * vm[j] * (gij * c + bij * sn);
          } else {
            v = vm[i] * (gij * sn - bij * c);
          }
        }
        jac_vals[s] = v;
      }
    }

    Status factored;
    if (sparse_lu) {
      jac.UpdateValues(jac_vals);
      factored = slu->Refactor(jac);
    } else {
      for (size_t row = 0; row < np + nq; ++row) {
        for (size_t s = jrs[row]; s < jrs[row + 1]; ++s) {
          dense_jac(row, jci[s]) = jac_vals[s];
        }
      }
      factored = dlu.Refactor(dense_jac);
    }
    if (!factored.ok()) {
      return Status::Singular("power-flow Jacobian is singular: " +
                              factored.message());
    }
    PW_RETURN_IF_ERROR(sparse_lu ? slu->SolveInto(mismatch, delta)
                                 : dlu.SolveInto(mismatch, delta));

    for (size_t a = 0; a < np; ++a) va[p_buses[a]] += delta[a];
    for (size_t a = 0; a < nq; ++a) {
      vm[q_buses[a]] += delta[np + a];
      // A magnitude collapsing toward zero signals voltage instability;
      // clamp so the iteration either recovers or fails to converge
      // rather than producing NaNs.
      vm[q_buses[a]] = std::max(vm[q_buses[a]], 0.05);
    }
  }
  // PW_NO_ALLOC_END

  compute_injections();
  if (mismatch_norm >= kMismatchTolerance) {
    PW_OBS_COUNTER_INC("powerflow.ac.nonconverged");
    return Status::NotConverged(
        "power flow did not converge after " + std::to_string(kMaxIterations) +
        " iterations (mismatch=" + std::to_string(mismatch_norm) + ")");
  }
  PW_OBS_COUNTER_INC("powerflow.ac.solves");
  if (sparse_lu) PW_OBS_COUNTER_INC("powerflow.ac.sparse_solves");
  PW_OBS_COUNTER_ADD("powerflow.ac.iterations_total", iter);
  PW_OBS_QUANTILE_RECORD("powerflow.ac.iterations", iter);

  PowerFlowSolution sol;
  sol.vm = vm;
  sol.va_rad = va;
  sol.iterations = iter;
  sol.final_mismatch = mismatch_norm;
  sol.p_mw = Vector(n);
  sol.q_mvar = Vector(n);
  for (size_t i = 0; i < n; ++i) {
    sol.p_mw[i] = p_calc[i] * grid.base_mva();
    sol.q_mvar[i] = q_calc[i] * grid.base_mva();
  }
  sol.slack_p_mw = 0.0;  // filled by the wrapper (needs the pd override)
  return sol;
}

}  // namespace

Result<PowerFlowSolution> SolveAcPowerFlow(const Grid& grid,
                                           const PowerFlowOptions& options,
                                           const InjectionOverrides& overrides) {
  return SolveAcPowerFlow(grid, grid.BuildSparseAdmittance(), options,
                          overrides);
}

Result<PowerFlowSolution> SolveAcPowerFlow(const Grid& grid,
                                           const grid::SparseAdmittance& ybus,
                                           const PowerFlowOptions& options,
                                           const InjectionOverrides& overrides) {
  PW_TRACE_SCOPE("powerflow.ac.solve_us");
  PW_ASSIGN_OR_RETURN(ScheduledInjections sched,
                      ResolveInjections(grid, overrides));
  PW_ASSIGN_OR_RETURN(PowerFlowSolution sol,
                      SolveAcCore(grid, ybus, options, sched));

  size_t slack = grid.SlackBus();
  double pd_slack = overrides.pd_mw.empty() ? grid.bus(slack).pd_mw
                                            : overrides.pd_mw[slack];
  sol.slack_p_mw = sol.p_mw[slack] + pd_slack;
  return sol;
}

std::vector<double> BalanceGeneration(const Grid& grid,
                                      const std::vector<double>& pd_mw) {
  PW_CHECK_EQ(pd_mw.size(), grid.num_buses());
  double new_load = 0.0;
  for (double pd : pd_mw) new_load += pd;
  double base_gen = grid.TotalGenMw();
  double scale = base_gen > 0.0 ? new_load / grid.TotalLoadMw() : 1.0;

  std::vector<double> pg(grid.num_buses(), 0.0);
  for (size_t i = 0; i < grid.num_buses(); ++i) {
    const Bus& bus = grid.bus(i);
    // The slack bus absorbs the residual imbalance during the solve, so
    // its schedule is irrelevant; scale PV generation with demand.
    pg[i] = bus.pg_mw * scale;
  }
  return pg;
}

}  // namespace phasorwatch::pf
