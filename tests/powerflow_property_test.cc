// Randomized property tests: for a family of synthetic grids, the AC
// Newton-Raphson solver must converge and meet its schedule exactly.

#include <cmath>

#include <gtest/gtest.h>

#include "grid/synthetic.h"
#include "powerflow/flows.h"
#include "powerflow/powerflow.h"
#include "powerflow_oracle.h"

namespace phasorwatch::pf {
namespace {

grid::Grid MakeGrid(uint64_t seed) {
  grid::SyntheticGridOptions opts;
  opts.name = "prop" + std::to_string(seed);
  opts.num_buses = 24;
  opts.num_lines = 36;
  opts.seed = seed;
  auto grid = grid::BuildSyntheticGrid(opts);
  PW_CHECK(grid.ok());
  return std::move(grid).value();
}

class PowerFlowPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PowerFlowPropertyTest, NewtonRaphsonConvergesAndBalances) {
  grid::Grid grid = MakeGrid(GetParam());
  auto sol = SolveAcPowerFlow(grid);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(sol->final_mismatch, 1e-8);
  ExpectSatisfiesSchedule(grid, *sol);

  // At every PQ bus the computed injection equals the negative demand.
  for (size_t i = 0; i < grid.num_buses(); ++i) {
    const grid::Bus& bus = grid.bus(i);
    if (bus.type != grid::BusType::kPQ) continue;
    EXPECT_NEAR(sol->p_mw[i], -bus.pd_mw, 1e-4) << "bus " << bus.id;
    EXPECT_NEAR(sol->q_mvar[i], -bus.qd_mvar, 1e-4) << "bus " << bus.id;
  }

  // System-wide: total injection equals total series loss (> 0).
  auto flows = ComputeBranchFlows(grid, *sol);
  ASSERT_TRUE(flows.ok());
  double injections = 0.0;
  for (size_t i = 0; i < grid.num_buses(); ++i) {
    const grid::Bus& bus = grid.bus(i);
    double vm2 = sol->vm[i] * sol->vm[i];
    injections += sol->p_mw[i] - bus.gs_mw * vm2;
  }
  EXPECT_NEAR(injections, TotalLossMw(*flows), 1e-3);
}

TEST_P(PowerFlowPropertyTest, VoltagesStayPhysical) {
  grid::Grid grid = MakeGrid(GetParam());
  auto sol = SolveAcPowerFlow(grid);
  ASSERT_TRUE(sol.ok());
  for (size_t i = 0; i < grid.num_buses(); ++i) {
    EXPECT_GT(sol->vm[i], 0.8);
    EXPECT_LT(sol->vm[i], 1.15);
  }
}

// Seeds pre-screened for AC feasibility (about 10% of random draws sit
// at the voltage-stability edge; the distributional test below covers
// them).
INSTANTIATE_TEST_SUITE_P(Seeds, PowerFlowPropertyTest,
                         ::testing::Values(1, 4, 5, 9, 13, 22, 34, 37));

TEST(PowerFlowDistributionTest, MostRandomGridsAreFeasible) {
  // Over a block of unscreened seeds, the generator must produce mostly
  // solvable systems (the DC-feasibility rescale is doing its job).
  size_t solved = 0;
  const uint64_t kSeeds = 20;
  for (uint64_t seed = 100; seed < 100 + kSeeds; ++seed) {
    grid::SyntheticGridOptions opts;
    opts.num_buses = 24;
    opts.num_lines = 36;
    opts.seed = seed;
    auto grid = grid::BuildSyntheticGrid(opts);
    ASSERT_TRUE(grid.ok());
    if (SolveAcPowerFlow(*grid).ok()) ++solved;
  }
  EXPECT_GE(solved, kSeeds * 7 / 10);
}

}  // namespace
}  // namespace phasorwatch::pf
