#include "powerflow/powerflow.h"

#include <cmath>

#include <gtest/gtest.h>

#include "grid/ieee_cases.h"
#include "obs/metrics.h"
#include "powerflow_oracle.h"

namespace phasorwatch::pf {
namespace {

using grid::Bus;
using grid::BusType;
using grid::Branch;
using grid::Grid;

// Two-bus system: slack feeding one load over a mostly reactive line.
Result<Grid> TwoBus(double load_mw = 50.0, double load_mvar = 20.0) {
  Bus slack;
  slack.id = 1;
  slack.type = BusType::kSlack;
  slack.vm_setpoint = 1.0;
  Bus load;
  load.id = 2;
  load.type = BusType::kPQ;
  load.pd_mw = load_mw;
  load.qd_mvar = load_mvar;
  Branch br;
  br.from_bus = 1;
  br.to_bus = 2;
  br.r = 0.01;
  br.x = 0.1;
  return Grid::Create("twobus", {slack, load}, {br});
}

TEST(AcPowerFlowTest, TwoBusConverges) {
  auto grid = TwoBus();
  ASSERT_TRUE(grid.ok());
  auto sol = SolveAcPowerFlow(*grid);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(sol->iterations, 10);
  EXPECT_LT(sol->final_mismatch, 1e-8);
  // Load bus voltage sags below the slack setpoint.
  EXPECT_LT(sol->vm[1], 1.0);
  EXPECT_GT(sol->vm[1], 0.9);
  // Angle at the load lags.
  EXPECT_LT(sol->va_rad[1], 0.0);
}

TEST(AcPowerFlowTest, InjectionsMatchSchedule) {
  auto grid = TwoBus(80.0, 30.0);
  ASSERT_TRUE(grid.ok());
  auto sol = SolveAcPowerFlow(*grid);
  ASSERT_TRUE(sol.ok());
  // At the PQ bus the net computed injection equals -load.
  EXPECT_NEAR(sol->p_mw[1], -80.0, 1e-5);
  EXPECT_NEAR(sol->q_mvar[1], -30.0, 1e-5);
}

TEST(AcPowerFlowTest, SlackCoversLossesPlusLoad) {
  auto grid = TwoBus(60.0, 10.0);
  ASSERT_TRUE(grid.ok());
  auto sol = SolveAcPowerFlow(*grid);
  ASSERT_TRUE(sol.ok());
  // Slack injection slightly above the load (line losses are positive).
  EXPECT_GT(sol->p_mw[0], 60.0);
  EXPECT_LT(sol->p_mw[0], 62.0);
}

TEST(AcPowerFlowTest, ZeroLoadIsFlat) {
  auto grid = TwoBus(0.0, 0.0);
  ASSERT_TRUE(grid.ok());
  auto sol = SolveAcPowerFlow(*grid);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->vm[1], 1.0, 1e-9);
  EXPECT_NEAR(sol->va_rad[1], 0.0, 1e-9);
}

TEST(AcPowerFlowTest, InfeasibleLoadFailsToConverge) {
  // Far beyond the maximum power transfer of a 0.1 pu line.
  auto grid = TwoBus(2000.0, 800.0);
  ASSERT_TRUE(grid.ok());
  auto sol = SolveAcPowerFlow(*grid);
  EXPECT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kNotConverged);
}

TEST(AcPowerFlowTest, OverridesChangeOperatingPoint) {
  auto grid = TwoBus(50.0, 20.0);
  ASSERT_TRUE(grid.ok());
  InjectionOverrides overrides;
  overrides.pd_mw = {0.0, 100.0};
  overrides.qd_mvar = {0.0, 40.0};
  auto base = SolveAcPowerFlow(*grid);
  auto heavy = SolveAcPowerFlow(*grid, {}, overrides);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(heavy.ok());
  EXPECT_LT(heavy->vm[1], base->vm[1]);
}

TEST(AcPowerFlowTest, OverrideSizeMismatchRejected) {
  auto grid = TwoBus();
  ASSERT_TRUE(grid.ok());
  InjectionOverrides overrides;
  overrides.pd_mw = {1.0};
  auto sol = SolveAcPowerFlow(*grid, {}, overrides);
  EXPECT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInvalidArgument);
}

class IeeePowerFlowTest : public ::testing::TestWithParam<int> {};

TEST_P(IeeePowerFlowTest, ConvergesOnEvaluationSystem) {
  auto grid = grid::EvaluationSystem(GetParam());
  ASSERT_TRUE(grid.ok());
  auto sol = SolveAcPowerFlow(*grid);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LE(sol->iterations, 15);
  for (size_t i = 0; i < grid->num_buses(); ++i) {
    EXPECT_GT(sol->vm[i], 0.8) << "bus " << i;
    EXPECT_LT(sol->vm[i], 1.2) << "bus " << i;
  }
  ExpectSatisfiesSchedule(*grid, *sol);
}

TEST_P(IeeePowerFlowTest, ActivePowerBalances) {
  auto grid = grid::EvaluationSystem(GetParam());
  ASSERT_TRUE(grid.ok());
  auto sol = SolveAcPowerFlow(*grid);
  ASSERT_TRUE(sol.ok());
  // Sum of net injections equals total losses (> 0, small).
  double total = 0.0;
  for (size_t i = 0; i < grid->num_buses(); ++i) total += sol->p_mw[i];
  EXPECT_GT(total, 0.0);
  EXPECT_LT(total, 0.1 * grid->TotalLoadMw());
}

INSTANTIATE_TEST_SUITE_P(Systems, IeeePowerFlowTest,
                         ::testing::Values(14, 30, 57, 118));

TEST(AcPowerFlowTest, Ieee14MatchesPublishedVoltageProfileLoosely) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());
  auto sol = SolveAcPowerFlow(*grid);
  ASSERT_TRUE(sol.ok());
  // Bus 3 angle in the published solution is about -12.7 degrees.
  double va3_deg = sol->va_rad[2] * 180.0 / M_PI;
  EXPECT_NEAR(va3_deg, -12.7, 2.0);
  // Bus 14 is the weakest bus, near 1.035 pu.
  EXPECT_NEAR(sol->vm[13], 1.035, 0.03);
}

TEST(AcPowerFlowTest, OutageShiftsPhasors) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());
  auto base = SolveAcPowerFlow(*grid);
  ASSERT_TRUE(base.ok());
  // Take out a non-islanding line and compare phasors.
  grid::LineId line(0, 1);  // line 1-2, the heavy corridor
  ASSERT_FALSE(grid->WouldIsland(line));
  auto outage_grid = grid->WithLineOut(line);
  ASSERT_TRUE(outage_grid.ok());
  auto outage = SolveAcPowerFlow(*outage_grid);
  ASSERT_TRUE(outage.ok());
  double max_shift = 0.0;
  for (size_t i = 0; i < grid->num_buses(); ++i) {
    max_shift = std::max(max_shift,
                         std::fabs(outage->va_rad[i] - base->va_rad[i]));
  }
  EXPECT_GT(max_shift, 0.01);  // outages leave a visible signature
}

#ifndef PW_OBS_DISABLED
TEST(AcPowerFlowTest, IterationSeriesQuantilesStayWithinObservedRange) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.ResetAll();
  // Loads from light to heavy take different iteration counts.
  constexpr int kSolves = 6;
  double iterations_sum = 0.0;
  for (int k = 0; k < kSolves; ++k) {
    auto grid = TwoBus(10.0 + 40.0 * k, 5.0 + 15.0 * k);
    ASSERT_TRUE(grid.ok());
    auto sol = SolveAcPowerFlow(*grid);
    ASSERT_TRUE(sol.ok()) << sol.status().ToString();
    iterations_sum += sol->iterations;
  }
  const obs::QuantileHistogram* series =
      reg.FindQuantile("powerflow.ac.iterations");
  ASSERT_NE(series, nullptr);
  const obs::QuantileHistogram::Snapshot snap = series->TakeSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kSolves));
  EXPECT_EQ(snap.sum, iterations_sum);
  EXPECT_LE(snap.min, snap.p50());
  EXPECT_LE(snap.p50(), snap.max);
  EXPECT_LE(snap.p99(), snap.max);
}
#endif  // PW_OBS_DISABLED

TEST(BalanceGenerationTest, ScalesWithDemand) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());
  std::vector<double> pd(grid->num_buses());
  for (size_t i = 0; i < grid->num_buses(); ++i) {
    pd[i] = grid->bus(i).pd_mw * 1.1;
  }
  auto pg = BalanceGeneration(*grid, pd);
  double total_pg = 0.0;
  for (double v : pg) total_pg += v;
  EXPECT_NEAR(total_pg, grid->TotalGenMw() * 1.1, 1e-9);
}

}  // namespace
}  // namespace phasorwatch::pf
