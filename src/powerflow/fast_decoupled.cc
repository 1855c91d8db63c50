#include "powerflow/fast_decoupled.h"

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "linalg/complex_matrix.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
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

// Sparse XB-scheme fast-decoupled solve: identical sweep equations to
// the dense path below, with B'/B'' assembled in CSR straight from the
// branch list / sparse Ybus and factored once by the fill-reducing
// sparse LU. Injection evaluation runs over the Ybus pattern, so a
// full sweep is O(nnz) instead of O(n^2).
Result<PowerFlowSolution> SolveFastDecoupledSparse(
    const Grid& grid, const FastDecoupledOptions& options,
    const InjectionOverrides& overrides) {
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

  Vector p_sched(n), q_sched(n);
  for (size_t i = 0; i < n; ++i) {
    const Bus& bus = grid.bus(i);
    double pd = overrides.pd_mw.empty() ? bus.pd_mw : overrides.pd_mw[i];
    double qd = overrides.qd_mvar.empty() ? bus.qd_mvar : overrides.qd_mvar[i];
    double pg = overrides.pg_mw.empty() ? bus.pg_mw : overrides.pg_mw[i];
    p_sched[i] = (pg - pd) / grid.base_mva();
    q_sched[i] = -qd / grid.base_mva();
  }

  grid::SparseAdmittance ybus = grid.BuildSparseAdmittance();
  const std::vector<size_t>& yrs = ybus.g.RowStartArray();
  const std::vector<size_t>& yci = ybus.g.ColIndexArray();
  const std::vector<double>& gv = ybus.g.ValueArray();
  const std::vector<double>& bv = ybus.b.ValueArray();

  constexpr size_t kAbsent = static_cast<size_t>(-1);
  std::vector<size_t> p_buses, q_buses;
  std::vector<size_t> pos_p(n, kAbsent), pos_q(n, kAbsent);
  for (size_t i = 0; i < n; ++i) {
    if (grid.bus(i).type != BusType::kSlack) {
      pos_p[i] = p_buses.size();
      p_buses.push_back(i);
    }
    if (grid.bus(i).type == BusType::kPQ) {
      pos_q[i] = q_buses.size();
      q_buses.push_back(i);
    }
  }
  const size_t np = p_buses.size();
  const size_t nq = q_buses.size();

  // B': series-reactance Laplacian restricted to the angle unknowns,
  // stamped per branch in triplet form.
  std::vector<linalg::Triplet> bp_trips;
  bp_trips.reserve(4 * grid.num_branches());
  {
    std::map<int, size_t> index;
    for (size_t i = 0; i < n; ++i) index[grid.bus(i).id] = i;
    for (const auto& br : grid.branches()) {
      if (!br.in_service) continue;
      size_t f = index[br.from_bus];
      size_t t = index[br.to_bus];
      double w = 1.0 / br.x;
      if (pos_p[f] != kAbsent) bp_trips.push_back({pos_p[f], pos_p[f], w});
      if (pos_p[t] != kAbsent) bp_trips.push_back({pos_p[t], pos_p[t], w});
      if (pos_p[f] != kAbsent && pos_p[t] != kAbsent) {
        bp_trips.push_back({pos_p[f], pos_p[t], -w});
        bp_trips.push_back({pos_p[t], pos_p[f], -w});
      }
    }
  }
  linalg::CsrMatrix b_prime =
      linalg::CsrMatrix::FromTriplets(np, np, std::move(bp_trips));

  // B'': -Im(Ybus) over the magnitude unknowns, read off the sparse
  // admittance pattern.
  std::vector<linalg::Triplet> bq_trips;
  for (size_t i = 0; i < n; ++i) {
    if (pos_q[i] == kAbsent) continue;
    for (size_t s = yrs[i]; s < yrs[i + 1]; ++s) {
      const size_t k = yci[s];
      if (pos_q[k] == kAbsent || bv[s] == 0.0) continue;
      bq_trips.push_back({pos_q[i], pos_q[k], -bv[s]});
    }
  }
  linalg::CsrMatrix b_dprime =
      linalg::CsrMatrix::FromTriplets(nq, nq, std::move(bq_trips));

  auto lu_p = linalg::SparseLu::Factor(b_prime);
  if (!lu_p.ok()) {
    return Status::Singular("B' factorization failed: " +
                            lu_p.status().message());
  }
  Result<linalg::SparseLu> lu_q = Status::OK();
  if (nq > 0) {
    lu_q = linalg::SparseLu::Factor(b_dprime);
    if (!lu_q.ok()) {
      return Status::Singular("B'' factorization failed: " +
                              lu_q.status().message());
    }
  }

  Vector vm(n), va(n);
  for (size_t i = 0; i < n; ++i) {
    const Bus& bus = grid.bus(i);
    bool fixed_vm = bus.type != BusType::kPQ;
    vm[i] =
        fixed_vm ? bus.vm_setpoint : (options.flat_start ? 1.0 : bus.vm_setpoint);
    va[i] = 0.0;
  }

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

  PowerFlowSolution sol;
  double mismatch = 0.0;
  Vector dp(np), dtheta(np);
  Vector dq(nq), dvm(nq);
  int iter = 0;
  // PW_NO_ALLOC_BEGIN(sparse fast-decoupled sweep loop)
  for (; iter < options.max_iterations; ++iter) {
    compute_injections();

    mismatch = 0.0;
    for (size_t a = 0; a < np; ++a) {
      double miss = p_sched[p_buses[a]] - p_calc[p_buses[a]];
      mismatch = std::max(mismatch, std::fabs(miss));
      dp[a] = miss / vm[p_buses[a]];
    }
    for (size_t a = 0; a < nq; ++a) {
      mismatch = std::max(
          mismatch, std::fabs(q_sched[q_buses[a]] - q_calc[q_buses[a]]));
    }
    if (mismatch < options.tolerance) break;

    PW_RETURN_IF_ERROR(lu_p->SolveInto(dp, dtheta));
    for (size_t a = 0; a < np; ++a) va[p_buses[a]] += dtheta[a];

    if (nq > 0) {
      compute_injections();
      for (size_t a = 0; a < nq; ++a) {
        dq[a] = (q_sched[q_buses[a]] - q_calc[q_buses[a]]) / vm[q_buses[a]];
      }
      PW_RETURN_IF_ERROR(lu_q->SolveInto(dq, dvm));
      for (size_t a = 0; a < nq; ++a) {
        vm[q_buses[a]] = std::max(vm[q_buses[a]] + dvm[a], 0.05);
      }
    }
  }
  // PW_NO_ALLOC_END

  compute_injections();
  if (mismatch >= options.tolerance) {
    PW_OBS_COUNTER_INC("powerflow.fd.nonconverged");
    return Status::NotConverged(
        "fast-decoupled load flow did not converge after " +
        std::to_string(options.max_iterations) +
        " iterations (mismatch=" + std::to_string(mismatch) + ")");
  }
  PW_OBS_COUNTER_INC("powerflow.fd.solves");
  PW_OBS_COUNTER_INC("powerflow.fd.sparse_solves");
  PW_OBS_COUNTER_ADD("powerflow.fd.iterations_total", iter);
  PW_OBS_QUANTILE_RECORD("powerflow.fd.iterations", iter);

  sol.vm = vm;
  sol.va_rad = va;
  sol.iterations = iter;
  sol.final_mismatch = mismatch;
  sol.p_mw = Vector(n);
  sol.q_mvar = Vector(n);
  for (size_t i = 0; i < n; ++i) {
    sol.p_mw[i] = p_calc[i] * grid.base_mva();
    sol.q_mvar[i] = q_calc[i] * grid.base_mva();
  }
  size_t slack = grid.SlackBus();
  double pd_slack =
      overrides.pd_mw.empty() ? grid.bus(slack).pd_mw : overrides.pd_mw[slack];
  sol.slack_p_mw = sol.p_mw[slack] + pd_slack;
  return sol;
}

}  // namespace

Result<PowerFlowSolution> SolveFastDecoupled(
    const Grid& grid, const FastDecoupledOptions& options,
    const InjectionOverrides& overrides) {
  PW_TRACE_SCOPE("powerflow.fd.solve_us");
  if (options.sparse_bus_threshold > 0 &&
      grid.num_buses() >= options.sparse_bus_threshold) {
    return SolveFastDecoupledSparse(grid, options, overrides);
  }
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

  // Scheduled injections (pu).
  Vector p_sched(n), q_sched(n);
  for (size_t i = 0; i < n; ++i) {
    const Bus& bus = grid.bus(i);
    double pd = overrides.pd_mw.empty() ? bus.pd_mw : overrides.pd_mw[i];
    double qd = overrides.qd_mvar.empty() ? bus.qd_mvar : overrides.qd_mvar[i];
    double pg = overrides.pg_mw.empty() ? bus.pg_mw : overrides.pg_mw[i];
    p_sched[i] = (pg - pd) / grid.base_mva();
    q_sched[i] = -qd / grid.base_mva();
  }

  linalg::ComplexMatrix ybus = grid.BuildAdmittanceMatrix();
  Matrix g = ybus.Real();
  Matrix b = ybus.Imag();

  std::vector<size_t> p_buses;  // non-slack (angle unknowns)
  std::vector<size_t> q_buses;  // PQ (magnitude unknowns)
  for (size_t i = 0; i < n; ++i) {
    if (grid.bus(i).type != BusType::kSlack) p_buses.push_back(i);
    if (grid.bus(i).type == BusType::kPQ) q_buses.push_back(i);
  }
  const size_t np = p_buses.size();
  const size_t nq = q_buses.size();

  // XB-scheme matrices. B' uses the series reactance only (ignores
  // resistance and shunts); B'' is the imaginary Ybus restricted to PQ
  // buses. Both are constant, factored once.
  Matrix b_prime(np, np);
  {
    Matrix lap = grid.BuildSusceptanceLaplacian();
    for (size_t a = 0; a < np; ++a) {
      for (size_t c = 0; c < np; ++c) {
        b_prime(a, c) = lap(p_buses[a], p_buses[c]);
      }
    }
  }
  Matrix b_dprime(nq, nq);
  for (size_t a = 0; a < nq; ++a) {
    for (size_t c = 0; c < nq; ++c) {
      b_dprime(a, c) = -b(q_buses[a], q_buses[c]);
    }
  }

  auto lu_p = linalg::LuDecomposition::Factor(b_prime);
  if (!lu_p.ok()) {
    return Status::Singular("B' factorization failed: " +
                            lu_p.status().message());
  }
  Result<linalg::LuDecomposition> lu_q = Status::OK();
  if (nq > 0) {
    lu_q = linalg::LuDecomposition::Factor(b_dprime);
    if (!lu_q.ok()) {
      return Status::Singular("B'' factorization failed: " +
                              lu_q.status().message());
    }
  }

  Vector vm(n), va(n);
  for (size_t i = 0; i < n; ++i) {
    const Bus& bus = grid.bus(i);
    bool fixed_vm = bus.type != BusType::kPQ;
    vm[i] =
        fixed_vm ? bus.vm_setpoint : (options.flat_start ? 1.0 : bus.vm_setpoint);
    va[i] = 0.0;
  }

  Vector p_calc(n), q_calc(n);
  auto compute_injections = [&]() {
    for (size_t i = 0; i < n; ++i) {
      double p = 0.0, q = 0.0;
      for (size_t k = 0; k < n; ++k) {
        double gik = g(i, k);
        double bik = b(i, k);
        if (gik == 0.0 && bik == 0.0) continue;
        double theta = va[i] - va[k];
        double c = std::cos(theta);
        double s = std::sin(theta);
        p += vm[k] * (gik * c + bik * s);
        q += vm[k] * (gik * s - bik * c);
      }
      p_calc[i] = vm[i] * p;
      q_calc[i] = vm[i] * q;
    }
  };

  PowerFlowSolution sol;
  double mismatch = 0.0;
  // Half-iteration scratch, hoisted: every entry is overwritten each
  // pass, so the sweep loop itself never touches the heap.
  Vector dp(np), dtheta(np);
  Vector dq(nq), dvm(nq);
  int iter = 0;
  // PW_NO_ALLOC_BEGIN(fast-decoupled sweep loop)
  for (; iter < options.max_iterations; ++iter) {
    compute_injections();

    // P half-iteration: B' dtheta = dP / Vm.
    mismatch = 0.0;
    for (size_t a = 0; a < np; ++a) {
      double miss = p_sched[p_buses[a]] - p_calc[p_buses[a]];
      mismatch = std::max(mismatch, std::fabs(miss));
      dp[a] = miss / vm[p_buses[a]];
    }
    // Q mismatch check uses the same state snapshot.
    for (size_t a = 0; a < nq; ++a) {
      mismatch = std::max(
          mismatch, std::fabs(q_sched[q_buses[a]] - q_calc[q_buses[a]]));
    }
    if (mismatch < options.tolerance) break;

    PW_RETURN_IF_ERROR(lu_p->SolveInto(dp, dtheta));
    for (size_t a = 0; a < np; ++a) va[p_buses[a]] += dtheta[a];

    if (nq > 0) {
      // Q half-iteration with refreshed injections.
      compute_injections();
      for (size_t a = 0; a < nq; ++a) {
        dq[a] = (q_sched[q_buses[a]] - q_calc[q_buses[a]]) / vm[q_buses[a]];
      }
      PW_RETURN_IF_ERROR(lu_q->SolveInto(dq, dvm));
      for (size_t a = 0; a < nq; ++a) {
        vm[q_buses[a]] = std::max(vm[q_buses[a]] + dvm[a], 0.05);
      }
    }
  }
  // PW_NO_ALLOC_END

  compute_injections();
  if (mismatch >= options.tolerance) {
    PW_OBS_COUNTER_INC("powerflow.fd.nonconverged");
    return Status::NotConverged(
        "fast-decoupled load flow did not converge after " +
        std::to_string(options.max_iterations) +
        " iterations (mismatch=" + std::to_string(mismatch) + ")");
  }
  PW_OBS_COUNTER_INC("powerflow.fd.solves");
  PW_OBS_COUNTER_ADD("powerflow.fd.iterations_total", iter);
  PW_OBS_QUANTILE_RECORD("powerflow.fd.iterations", iter);

  sol.vm = vm;
  sol.va_rad = va;
  sol.iterations = iter;
  sol.final_mismatch = mismatch;
  sol.p_mw = Vector(n);
  sol.q_mvar = Vector(n);
  for (size_t i = 0; i < n; ++i) {
    sol.p_mw[i] = p_calc[i] * grid.base_mva();
    sol.q_mvar[i] = q_calc[i] * grid.base_mva();
  }
  size_t slack = grid.SlackBus();
  double pd_slack =
      overrides.pd_mw.empty() ? grid.bus(slack).pd_mw : overrides.pd_mw[slack];
  sol.slack_p_mw = sol.p_mw[slack] + pd_slack;
  return sol;
}

}  // namespace phasorwatch::pf
