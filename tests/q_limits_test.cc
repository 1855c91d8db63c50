#include <gtest/gtest.h>

#include "powerflow/powerflow.h"

namespace phasorwatch::pf {
namespace {

using grid::Bus;
using grid::BusType;
using grid::Branch;
using grid::Grid;

// Two-generator system engineered so that the PV bus must produce more
// reactive power than its capability to hold its setpoint: slack at
// bus 1, PV at bus 2 with a tight Q limit, heavy reactive load at bus 3.
Result<Grid> TightQGrid(double qmax) {
  Bus slack;
  slack.id = 1;
  slack.type = BusType::kSlack;
  slack.vm_setpoint = 1.0;
  Bus pv;
  pv.id = 2;
  pv.type = BusType::kPV;
  pv.pg_mw = 40.0;
  pv.vm_setpoint = 1.05;
  pv.qmin_mvar = -qmax;
  pv.qmax_mvar = qmax;
  Bus load;
  load.id = 3;
  load.type = BusType::kPQ;
  load.pd_mw = 60.0;
  load.qd_mvar = 35.0;

  auto mk = [](int f, int t) {
    Branch br;
    br.from_bus = f;
    br.to_bus = t;
    br.r = 0.01;
    br.x = 0.08;
    return br;
  };
  return Grid::Create("tightq", {slack, pv, load}, {mk(1, 2), mk(2, 3), mk(1, 3)});
}

TEST(QLimitsTest, BusHasQLimitsPredicate) {
  Bus b;
  EXPECT_FALSE(b.HasQLimits());
  b.qmax_mvar = 10.0;
  b.qmin_mvar = -5.0;
  EXPECT_TRUE(b.HasQLimits());
  b.qmin_mvar = 10.0;
  EXPECT_FALSE(b.HasQLimits());
}

TEST(QLimitsTest, DisabledByDefault) {
  auto grid = TightQGrid(5.0);
  ASSERT_TRUE(grid.ok());
  auto sol = SolveAcPowerFlow(*grid);
  ASSERT_TRUE(sol.ok());
  // The solver does not enforce generator Q limits: the PV bus holds
  // its setpoint exactly, even though that requires Q beyond the
  // declared limit (the MATPOWER writer still reads HasQLimits).
  auto idx = grid->BusIndex(2);
  ASSERT_TRUE(idx.ok());
  EXPECT_NEAR(sol->vm[*idx], 1.05, 1e-9);
  EXPECT_GT(sol->q_mvar[*idx], 5.0);  // violated capability
}

}  // namespace
}  // namespace phasorwatch::pf
