// Exact oracle for a solved AC power flow, shared by powerflow_test and
// sparse_solver_test. It never reads the solver's own p_mw / q_mvar:
// every bus injection is recomputed from the returned voltages alone
// (branch end flows from ComputeBranchFlows plus the bus shunt) and
// checked against the schedule the solver was asked to meet.

#ifndef PHASORWATCH_TESTS_POWERFLOW_ORACLE_H_
#define PHASORWATCH_TESTS_POWERFLOW_ORACLE_H_

#include <vector>

#include <gtest/gtest.h>

#include "grid/grid.h"
#include "powerflow/flows.h"
#include "powerflow/powerflow.h"

namespace phasorwatch::pf {

/// Asserts, to `tol` MW / MVAr / pu, that `sol` satisfies the AC power
/// balance `grid` schedules (no overrides, no Q limits):
///   - P = pg - pd at every non-slack bus;
///   - Q = -qd at every PQ bus;
///   - |V| = vm_setpoint at every PV bus and at the slack.
inline void ExpectSatisfiesSchedule(const grid::Grid& grid,
                                    const PowerFlowSolution& sol,
                                    double tol = 1e-4) {
  const size_t n = grid.num_buses();
  ASSERT_EQ(sol.vm.size(), n);
  ASSERT_EQ(sol.va_rad.size(), n);
  auto flows = ComputeBranchFlows(grid, sol);
  ASSERT_TRUE(flows.ok()) << flows.status().ToString();

  // Net injection = power leaving through every branch end + shunt draw.
  std::vector<double> p(n, 0.0), q(n, 0.0);
  for (const BranchFlow& flow : *flows) {
    auto f = grid.BusIndex(flow.from_bus);
    auto t = grid.BusIndex(flow.to_bus);
    ASSERT_TRUE(f.ok() && t.ok());
    p[*f] += flow.p_from_mw;
    q[*f] += flow.q_from_mvar;
    p[*t] += flow.p_to_mw;
    q[*t] += flow.q_to_mvar;
  }
  for (size_t i = 0; i < n; ++i) {
    const grid::Bus& bus = grid.bus(i);
    const double vm2 = sol.vm[i] * sol.vm[i];
    p[i] += bus.gs_mw * vm2;
    q[i] -= bus.bs_mvar * vm2;

    if (bus.type != grid::BusType::kSlack) {
      EXPECT_NEAR(p[i], bus.pg_mw - bus.pd_mw, tol) << "P at bus " << bus.id;
    }
    if (bus.type == grid::BusType::kPQ) {
      EXPECT_NEAR(q[i], -bus.qd_mvar, tol) << "Q at bus " << bus.id;
    } else {
      EXPECT_NEAR(sol.vm[i], bus.vm_setpoint, tol) << "|V| at bus " << bus.id;
    }
  }
}

}  // namespace phasorwatch::pf

#endif  // PHASORWATCH_TESTS_POWERFLOW_ORACLE_H_
