#include "linalg/sparse.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grid/ieee_cases.h"
#include "linalg/lu.h"

namespace phasorwatch::linalg {
namespace {

TEST(CsrMatrixTest, FromTripletsBasicLayout) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 2.0}, {1, 2, -1.0}, {2, 1, 4.0}});
  EXPECT_EQ(m.NumNonZeros(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
}

TEST(CsrMatrixTest, DuplicateTripletsAreSummed) {
  // The branch-stamping idiom: several contributions to one entry.
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {0, 0, -0.5}});
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.0);
  EXPECT_EQ(m.NumNonZeros(), 1u);
}

TEST(CsrMatrixTest, ExactCancellationDropsEntry) {
  CsrMatrix m = CsrMatrix::FromTriplets(2, 2, {{0, 1, 1.0}, {0, 1, -1.0}});
  EXPECT_EQ(m.NumNonZeros(), 0u);
}

TEST(CsrMatrixTest, DenseRoundTrip) {
  Rng rng(1);
  Matrix dense(5, 4);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      dense(i, j) = rng.Bernoulli(0.4) ? rng.Uniform(-2.0, 2.0) : 0.0;
    }
  }
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  EXPECT_TRUE(sparse.ToDense().AlmostEquals(dense, 0.0));
}

TEST(CsrMatrixTest, MultiplyMatchesDense) {
  Rng rng(2);
  Matrix dense(8, 8);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      dense(i, j) = rng.Bernoulli(0.3) ? rng.Uniform(-1.0, 1.0) : 0.0;
    }
  }
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  Vector x(8);
  for (size_t i = 0; i < 8; ++i) x[i] = rng.Uniform(-1.0, 1.0);
  Vector dense_y = dense * x;
  Vector sparse_y = sparse.Multiply(x);
  EXPECT_LT((dense_y - sparse_y).InfNorm(), 1e-12);
}

TEST(CsrMatrixTest, DiagonalAndSymmetry) {
  Matrix dense = {{2.0, -1.0, 0.0}, {-1.0, 3.0, -1.0}, {0.0, -1.0, 2.0}};
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  Vector d = sparse.Diagonal();
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  EXPECT_TRUE(sparse.IsSymmetric());

  Matrix asym = {{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_FALSE(CsrMatrix::FromDense(asym).IsSymmetric());
}

TEST(CsrMatrixTest, FromPatternKeepsZeroSlots) {
  CsrMatrix m = CsrMatrix::FromPattern(
      3, 3, {{0, 0}, {1, 2}, {1, 2}, {2, 1}, {2, 2}});
  // Duplicates collapse, zero values survive as addressable slots.
  EXPECT_EQ(m.NumNonZeros(), 4u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.0);
  m.SetValue(m.EntrySlot(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.ValueAt(m.EntrySlot(1, 2)), 5.0);
}

TEST(CsrMatrixTest, UpdateValuesRefreshesInPlace) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}});
  // Values arrive in row-major pattern order: (0,0), (0,1), (1,1).
  m.UpdateValues(Vector{10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(m.At(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 30.0);
  EXPECT_EQ(m.NumNonZeros(), 3u);
}

TEST(CsrMatrixTest, MultiplyIntoMatchesMultiply) {
  Rng rng(7);
  Matrix dense(6, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      dense(i, j) = rng.Bernoulli(0.4) ? rng.Uniform(-1.0, 1.0) : 0.0;
    }
  }
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  Vector x(6);
  for (size_t i = 0; i < 6; ++i) x[i] = rng.Uniform(-1.0, 1.0);
  Vector y(6);
  sparse.MultiplyInto(x, y);
  EXPECT_LT((y - sparse.Multiply(x)).InfNorm(), 0.0 + 1e-15);
}

TEST(SparseLuTest, SolvesSmallSystemExactly) {
  Matrix dense = {{4.0, 1.0, 0.0}, {1.0, 3.0, -1.0}, {0.0, -1.0, 2.0}};
  CsrMatrix a = CsrMatrix::FromDense(dense);
  auto lu = SparseLu::Factor(a);
  ASSERT_TRUE(lu.ok()) << lu.status().ToString();
  Vector b{1.0, 2.0, 3.0};
  auto x = lu->Solve(b);
  ASSERT_TRUE(x.ok());
  Vector residual = dense * *x - b;
  EXPECT_LT(residual.InfNorm(), 1e-12);
}

TEST(SparseLuTest, MatchesDenseLuOnRandomDiagonallyDominant) {
  Rng rng(11);
  const size_t n = 40;
  Matrix dense(n, n);
  for (size_t i = 0; i < n; ++i) {
    double off_sum = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (rng.Bernoulli(0.15)) {
        dense(i, j) = rng.Uniform(-1.0, 1.0);
        off_sum += std::fabs(dense(i, j));
      }
    }
    dense(i, i) = off_sum + rng.Uniform(0.5, 1.5);
  }
  CsrMatrix a = CsrMatrix::FromDense(dense);
  auto sparse_lu = SparseLu::Factor(a);
  ASSERT_TRUE(sparse_lu.ok()) << sparse_lu.status().ToString();
  auto dense_lu = LuDecomposition::Factor(dense);
  ASSERT_TRUE(dense_lu.ok());

  Vector b(n);
  for (size_t i = 0; i < n; ++i) b[i] = rng.Uniform(-2.0, 2.0);
  auto xs = sparse_lu->Solve(b);
  auto xd = dense_lu->Solve(b);
  ASSERT_TRUE(xs.ok());
  ASSERT_TRUE(xd.ok());
  EXPECT_LT((*xs - *xd).InfNorm(), 1e-9);
}

TEST(SparseLuTest, RefactorReusesPatternWithoutReanalysis) {
  Matrix dense = {{2.0, -1.0, 0.0}, {-1.0, 2.0, -1.0}, {0.0, -1.0, 2.0}};
  CsrMatrix a = CsrMatrix::FromDense(dense);
  auto lu = SparseLu::Analyze(a);
  ASSERT_TRUE(lu.ok());
  ASSERT_TRUE(lu->Refactor(a).ok());

  // Same pattern, new values: refresh in place and refactor.
  Vector scaled(a.NumNonZeros());
  for (size_t k = 0; k < a.NumNonZeros(); ++k) {
    scaled[k] = 3.0 * a.ValueArray()[k];
  }
  a.UpdateValues(scaled);
  ASSERT_TRUE(lu->Refactor(a).ok());
  auto x = lu->Solve(Vector{3.0, 0.0, 3.0});
  ASSERT_TRUE(x.ok());
  // (3 A)^{-1} b = A^{-1} (b / 3); for the tridiagonal above and
  // b = [3, 0, 3], A^{-1} [1, 0, 1] = [1, 1, 1].
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 1.0, 1e-12);
  EXPECT_NEAR((*x)[2], 1.0, 1e-12);
}

TEST(SparseLuTest, SingularMatrixReported) {
  CsrMatrix a = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  auto lu = SparseLu::Factor(a);
  EXPECT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), StatusCode::kSingular);
}

TEST(SparseLuTest, SolveBeforeFactorFails) {
  CsrMatrix a = CsrMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  auto lu = SparseLu::Analyze(a);
  ASSERT_TRUE(lu.ok());
  Vector x(2);
  EXPECT_FALSE(lu->SolveInto(Vector{1.0, 1.0}, x).ok());
}

TEST(SparseLuTest, ReducedLaplacianMatchesDenseAcrossSystems) {
  for (int system : {14, 30, 57, 118}) {
    auto grid = grid::EvaluationSystem(system);
    ASSERT_TRUE(grid.ok());
    Matrix lap = grid->BuildSusceptanceLaplacian();
    std::vector<size_t> keep;
    for (size_t i = 0; i < grid->num_buses(); ++i) {
      if (i != grid->SlackBus()) keep.push_back(i);
    }
    Matrix reduced = lap.SelectRows(keep).SelectCols(keep);
    CsrMatrix sparse = CsrMatrix::FromDense(reduced);
    // The DC Laplacian is sparse: for meshed grids nnz ~ n + 2 lines.
    EXPECT_LT(sparse.NumNonZeros(),
              keep.size() + 2 * grid->num_lines() + 4);

    auto sparse_lu = SparseLu::Factor(sparse);
    ASSERT_TRUE(sparse_lu.ok()) << sparse_lu.status().ToString();
    // Fill-reducing ordering keeps the factors far from dense (the
    // bound is meaningless for the tiny 13-unknown IEEE 14 system).
    if (keep.size() > 25) {
      EXPECT_LT(sparse_lu->FactorNonZeros(), keep.size() * keep.size() / 4);
    }

    auto dense_lu = LuDecomposition::Factor(reduced);
    ASSERT_TRUE(dense_lu.ok());
    Rng rng(static_cast<uint64_t>(system));
    Vector b(keep.size());
    for (size_t i = 0; i < b.size(); ++i) b[i] = rng.Uniform(-1.0, 1.0);
    auto xs = sparse_lu->Solve(b);
    auto xd = dense_lu->Solve(b);
    ASSERT_TRUE(xs.ok());
    ASSERT_TRUE(xd.ok());
    EXPECT_LT((*xs - *xd).InfNorm(), 1e-8) << "system " << system;
  }
}

}  // namespace
}  // namespace phasorwatch::linalg
