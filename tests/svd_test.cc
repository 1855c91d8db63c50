#include "linalg/svd.h"

#include <cmath>

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

}  // namespace
}  // namespace phasorwatch::linalg
