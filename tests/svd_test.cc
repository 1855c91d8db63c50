#include "linalg/svd.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace phasorwatch::linalg {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

double OrthonormalityError(const Matrix& q) {
  Matrix gram = q.TransposedTimes(q);
  return (gram - Matrix::Identity(q.cols())).MaxAbs();
}

TEST(SvdTest, DiagonalMatrix) {
  Matrix a = {{3.0, 0.0}, {0.0, 2.0}};
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd->singular_values[0], 3.0, 1e-10);
  EXPECT_NEAR(svd->singular_values[1], 2.0, 1e-10);
}

TEST(SvdTest, SingularValuesSortedDescending) {
  Rng rng(1);
  Matrix a = RandomMatrix(8, 5, rng);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  for (size_t i = 0; i + 1 < svd->singular_values.size(); ++i) {
    EXPECT_GE(svd->singular_values[i], svd->singular_values[i + 1]);
  }
}

TEST(SvdTest, RejectsEmptyMatrix) {
  Matrix a;
  auto svd = ComputeSvd(a);
  EXPECT_FALSE(svd.ok());
}

// A single working column has no pair to rotate, so the sweeps alone
// never see its entries: tall (3x1) and wide (1x3) inputs both take
// that path.
TEST(SvdTest, NonFiniteSingleColumnFails) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const Matrix& a : {Matrix{{nan}}, Matrix{{1.0}, {nan}, {2.0}},
                          Matrix{{1.0, inf, 2.0}}}) {
    auto svd = ComputeSvd(a);
    ASSERT_FALSE(svd.ok()) << a.rows() << "x" << a.cols();
    EXPECT_EQ(svd.status().code(), StatusCode::kNotConverged);
  }
}

TEST(SvdTest, RankOfLowRankMatrix) {
  // Outer product: rank 1.
  Vector u = {1.0, 2.0, 3.0};
  Vector v = {4.0, 5.0};
  Matrix a(3, 2);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) a(i, j) = u[i] * v[j];
  }
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_EQ(svd->Rank(), 1u);
}

TEST(SvdTest, FrobeniusNormMatchesSingularValues) {
  Rng rng(2);
  Matrix a = RandomMatrix(6, 4, rng);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  double sum_sq = 0.0;
  for (size_t i = 0; i < svd->singular_values.size(); ++i) {
    sum_sq += svd->singular_values[i] * svd->singular_values[i];
  }
  EXPECT_NEAR(std::sqrt(sum_sq), a.FrobeniusNorm(), 1e-10);
}

TEST(SvdTest, HandlesZeroMatrix) {
  Matrix a(4, 3);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  for (size_t i = 0; i < svd->singular_values.size(); ++i) {
    EXPECT_DOUBLE_EQ(svd->singular_values[i], 0.0);
  }
  // U must still have orthonormal columns (completed basis).
  EXPECT_LT(OrthonormalityError(svd->u), 1e-8);
}

class SvdPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(SvdPropertyTest, ReconstructsInput) {
  auto [rows, cols] = GetParam();
  Rng rng(rows * 131 + cols);
  Matrix a = RandomMatrix(rows, cols, rng);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_TRUE(svd->Reconstruct().AlmostEquals(a, 1e-9))
      << rows << "x" << cols;
}

TEST_P(SvdPropertyTest, FactorsAreOrthonormal) {
  auto [rows, cols] = GetParam();
  Rng rng(rows * 257 + cols);
  Matrix a = RandomMatrix(rows, cols, rng);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_LT(OrthonormalityError(svd->u), 1e-8);
  EXPECT_LT(OrthonormalityError(svd->v), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdPropertyTest,
    ::testing::Values(std::make_pair<size_t, size_t>(1, 1),
                      std::make_pair<size_t, size_t>(3, 3),
                      std::make_pair<size_t, size_t>(10, 4),
                      std::make_pair<size_t, size_t>(4, 10),
                      std::make_pair<size_t, size_t>(25, 25),
                      std::make_pair<size_t, size_t>(40, 15),
                      std::make_pair<size_t, size_t>(15, 40)));

// ComputeSvd is also the library's symmetric eigensolver: for a
// symmetric positive semidefinite input A, U holds the eigenvectors and
// the singular values are the eigenvalues, so A = U diag(s) U^T.

// X^T X of a random (n + 3) x n X: symmetric positive definite.
Matrix RandomScatter(size_t n, Rng& rng) {
  Matrix x = RandomMatrix(n + 3, n, rng);
  return x.TransposedTimes(x);
}

Matrix EigenReconstruct(const SvdResult& eig) {
  return eig.u * Matrix::Diag(eig.singular_values) * eig.u.Transposed();
}

TEST(EigenSymTest, DiagonalMatrixEigenvalues) {
  Matrix a = Matrix::Diag(Vector{1.0, 5.0, 3.0});
  auto eig = ComputeSvd(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->singular_values[0], 5.0, 1e-12);
  EXPECT_NEAR(eig->singular_values[1], 3.0, 1e-12);
  EXPECT_NEAR(eig->singular_values[2], 1.0, 1e-12);
  // The eigenvectors are the axes, in eigenvalue order (up to sign).
  EXPECT_NEAR(std::fabs(eig->u(1, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::fabs(eig->u(2, 1)), 1.0, 1e-12);
  EXPECT_NEAR(std::fabs(eig->u(0, 2)), 1.0, 1e-12);
}

TEST(EigenSymTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1, eigenvectors (1, +-1)/sqrt 2.
  Matrix a = {{2.0, 1.0}, {1.0, 2.0}};
  auto eig = ComputeSvd(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->singular_values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->singular_values[1], 1.0, 1e-10);
  EXPECT_NEAR(eig->u(0, 0), eig->u(1, 0), 1e-10);
  EXPECT_NEAR(eig->u(0, 1), -eig->u(1, 1), 1e-10);
  EXPECT_TRUE(EigenReconstruct(*eig).AlmostEquals(a, 1e-10));
}

TEST(EigenSymTest, ProjectorEigenvaluesAreZeroOrOne) {
  // P = v v^T for a unit vector has eigenvalues {1, 0, 0}; the two null
  // directions come from U's orthonormal completion.
  Vector v = {3.0 / 5.0, 4.0 / 5.0, 0.0};
  Matrix p(3, 3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) p(i, j) = v[i] * v[j];
  }
  auto eig = ComputeSvd(p);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->singular_values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig->singular_values[1], 0.0, 1e-10);
  EXPECT_NEAR(eig->singular_values[2], 0.0, 1e-10);
  EXPECT_NEAR(std::fabs(eig->u.Col(0).Dot(v)), 1.0, 1e-10);
  EXPECT_LT(OrthonormalityError(eig->u), 1e-10);
  EXPECT_TRUE(EigenReconstruct(*eig).AlmostEquals(p, 1e-10));
}

TEST(EigenSymTest, RepeatedRowScatterConverges) {
  // X^T X of an X with a repeated column: the Jacobi sweeps alone never
  // settle on its roundoff-level null column, and the solver must still
  // return orthonormal eigenvectors that reconstruct the input.
  Rng rng(17);
  Matrix x = RandomMatrix(30, 10, rng);
  for (size_t i = 0; i < x.rows(); ++i) x(i, 7) = x(i, 2);
  Matrix a = x.TransposedTimes(x);
  auto eig = ComputeSvd(a);
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();
  EXPECT_EQ(eig->Rank(), 9u);
  EXPECT_LT(OrthonormalityError(eig->u), 1e-10);
  EXPECT_TRUE(EigenReconstruct(*eig).AlmostEquals(a, 1e-10));
}

TEST(EigenSymTest, NonFiniteInputFails) {
  Matrix a = {{1.0, std::nan("")}, {std::nan(""), 1.0}};
  auto eig = ComputeSvd(a);
  ASSERT_FALSE(eig.ok());
  EXPECT_EQ(eig.status().code(), StatusCode::kNotConverged);
}

class EigenSymPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenSymPropertyTest, Reconstruction) {
  Rng rng(GetParam() * 7 + 1);
  Matrix a = RandomScatter(GetParam(), rng);
  auto eig = ComputeSvd(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(EigenReconstruct(*eig).AlmostEquals(a, 1e-9));
}

TEST_P(EigenSymPropertyTest, EigenvectorsOrthonormal) {
  Rng rng(GetParam() * 11 + 3);
  Matrix a = RandomScatter(GetParam(), rng);
  auto eig = ComputeSvd(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_LT(OrthonormalityError(eig->u), 1e-9);
}

TEST_P(EigenSymPropertyTest, SatisfiesEigenEquation) {
  Rng rng(GetParam() * 13 + 5);
  Matrix a = RandomScatter(GetParam(), rng);
  auto eig = ComputeSvd(a);
  ASSERT_TRUE(eig.ok());
  for (size_t k = 0; k < GetParam(); ++k) {
    Vector u = eig->u.Col(k);
    Vector au = a * u;
    Vector lu = u * eig->singular_values[k];
    EXPECT_LT((au - lu).InfNorm(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymPropertyTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 60));

}  // namespace
}  // namespace phasorwatch::linalg
