// Sparse-vs-dense equivalence lane for the power-flow solver
// (docs/SPARSE.md). The Newton-Raphson core factors its Jacobian with
// the sparse LU at or above sparse_bus_threshold and the dense LU
// below; the two differ only in elimination order, so states must
// agree to the documented tolerances on every IEEE system across
// seeded load draws. The sparse Ybus carries a stronger contract:
// bit-exact against the dense reference build, on every base grid and
// every outage grid, with the outage grid keeping its base pattern.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grid/grid.h"
#include "grid/ieee_cases.h"
#include "grid/synthetic.h"
#include "linalg/complex_matrix.h"
#include "linalg/matrix.h"
#include "powerflow/powerflow.h"
#include "powerflow_oracle.h"

namespace phasorwatch::pf {
namespace {

using grid::Grid;
using grid::LineId;
using grid::SparseAdmittance;
using linalg::Matrix;
using linalg::Vector;

// docs/SPARSE.md tolerance policy: states to 1e-6 in the infinity
// norm, iteration counts within one, mismatch norms both below the
// solver tolerance.
constexpr double kStateTol = 1e-6;

InjectionOverrides SeededLoadDraw(const Grid& grid, uint64_t seed,
                                  uint64_t stream) {
  Rng rng = Rng::Fork(seed, stream);
  InjectionOverrides ov;
  ov.pd_mw.resize(grid.num_buses());
  ov.qd_mvar.resize(grid.num_buses());
  for (size_t i = 0; i < grid.num_buses(); ++i) {
    double mult = rng.Uniform(0.85, 1.15);
    ov.pd_mw[i] = grid.bus(i).pd_mw * mult;
    ov.qd_mvar[i] = grid.bus(i).qd_mvar * mult;
  }
  ov.pg_mw = BalanceGeneration(grid, ov.pd_mw);
  return ov;
}

class SparseNewtonEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseNewtonEquivalenceTest, MatchesDenseAcrossLoadDraws) {
  auto grid = grid::EvaluationSystem(GetParam());
  ASSERT_TRUE(grid.ok());

  PowerFlowOptions dense_opts;
  dense_opts.sparse_bus_threshold = 0;  // force dense
  PowerFlowOptions sparse_opts;
  sparse_opts.sparse_bus_threshold = 1;  // force sparse

  for (uint64_t draw = 0; draw < 5; ++draw) {
    InjectionOverrides ov =
        SeededLoadDraw(*grid, 1000 + static_cast<uint64_t>(GetParam()), draw);
    auto dense = SolveAcPowerFlow(*grid, dense_opts, ov);
    auto sparse = SolveAcPowerFlow(*grid, sparse_opts, ov);
    ASSERT_TRUE(dense.ok()) << dense.status().ToString();
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();

    EXPECT_LT((dense->vm - sparse->vm).InfNorm(), kStateTol)
        << "draw " << draw;
    EXPECT_LT((dense->va_rad - sparse->va_rad).InfNorm(), kStateTol)
        << "draw " << draw;
    EXPECT_LT(dense->final_mismatch, kMismatchTolerance);
    EXPECT_LT(sparse->final_mismatch, kMismatchTolerance);
    EXPECT_NEAR(dense->iterations, sparse->iterations, 1) << "draw " << draw;
    EXPECT_NEAR(dense->slack_p_mw, sparse->slack_p_mw,
                1e-4 * (1.0 + std::fabs(dense->slack_p_mw)));
  }
}

TEST_P(SparseNewtonEquivalenceTest, PrebuiltYbusMatchesInternalAssembly) {
  auto grid = grid::EvaluationSystem(GetParam());
  ASSERT_TRUE(grid.ok());

  PowerFlowOptions sparse_opts;
  sparse_opts.sparse_bus_threshold = 1;
  InjectionOverrides ov =
      SeededLoadDraw(*grid, 5 + static_cast<uint64_t>(GetParam()), 0);

  SparseAdmittance ybus = grid->BuildSparseAdmittance();
  // Default options factor with the dense LU on every IEEE system; the
  // forced threshold takes the sparse LU. Both read the prebuilt Ybus.
  for (const PowerFlowOptions& opts : {PowerFlowOptions{}, sparse_opts}) {
    auto internal = SolveAcPowerFlow(*grid, opts, ov);
    auto prebuilt = SolveAcPowerFlow(*grid, ybus, opts, ov);
    ASSERT_TRUE(internal.ok());
    ASSERT_TRUE(prebuilt.ok());
    // Same Ybus values, same elimination order: identical trajectories.
    EXPECT_EQ((internal->vm - prebuilt->vm).InfNorm(), 0.0);
    EXPECT_EQ((internal->va_rad - prebuilt->va_rad).InfNorm(), 0.0);
    EXPECT_EQ(internal->iterations, prebuilt->iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, SparseNewtonEquivalenceTest,
                         ::testing::Values(14, 30, 57, 118));

class IncrementalYbusTest : public ::testing::TestWithParam<int> {};

// Bit-exact: identical stamping order, identical arithmetic.
void ExpectSparseMatchesDense(const Grid& grid) {
  SparseAdmittance sparse = grid.BuildSparseAdmittance();
  linalg::ComplexMatrix dense = grid.BuildAdmittanceMatrix();
  Matrix dense_g = dense.Real();
  Matrix dense_b = dense.Imag();
  Matrix sg = sparse.g.ToDense();
  Matrix sb = sparse.b.ToDense();
  for (size_t i = 0; i < grid.num_buses(); ++i) {
    for (size_t j = 0; j < grid.num_buses(); ++j) {
      ASSERT_EQ(sg(i, j), dense_g(i, j)) << grid.name() << " " << i << ","
                                         << j;
      ASSERT_EQ(sb(i, j), dense_b(i, j)) << grid.name() << " " << i << ","
                                         << j;
    }
  }
}

TEST_P(IncrementalYbusTest, SparseBuildMatchesDenseBitExactly) {
  auto grid = grid::EvaluationSystem(GetParam());
  ASSERT_TRUE(grid.ok());
  ExpectSparseMatchesDense(*grid);
  const size_t base_nnz = grid->BuildSparseAdmittance().g.NumNonZeros();

  size_t outage_grids = 0;
  for (const LineId& line : grid->lines()) {
    if (grid->WouldIsland(line)) continue;
    auto outage_grid = grid->WithLineOut(line);
    ASSERT_TRUE(outage_grid.ok()) << outage_grid.status().ToString();
    ++outage_grids;
    ExpectSparseMatchesDense(*outage_grid);
    // The out-of-service branches keep their slots as explicit zeros.
    EXPECT_EQ(outage_grid->BuildSparseAdmittance().g.NumNonZeros(), base_nnz)
        << grid->LineName(line);
  }
  EXPECT_GT(outage_grids, 0u);
}

INSTANTIATE_TEST_SUITE_P(Systems, IncrementalYbusTest,
                         ::testing::Values(14, 30, 57, 118));

// The 300-bus ring-of-meshes preset crosses the default threshold, so
// a plain SolveAcPowerFlow call factors with the sparse LU — and must
// still agree with a forced dense-LU solve.
TEST(ScaleGridTest, Synthetic300SolvesSparseByDefaultAndMatchesDense) {
  auto grid = grid::Synthetic300Bus();
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  ASSERT_GE(grid->num_buses(), PowerFlowOptions{}.sparse_bus_threshold);

  auto sparse = SolveAcPowerFlow(*grid);  // defaults: sparse at 300 buses
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  ExpectSatisfiesSchedule(*grid, *sparse);

  PowerFlowOptions dense_opts;
  dense_opts.sparse_bus_threshold = 0;
  auto dense = SolveAcPowerFlow(*grid, dense_opts);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();

  EXPECT_LT((dense->vm - sparse->vm).InfNorm(), kStateTol);
  EXPECT_LT((dense->va_rad - sparse->va_rad).InfNorm(), kStateTol);
}

}  // namespace
}  // namespace phasorwatch::pf
