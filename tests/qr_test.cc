#include "linalg/qr.h"

#include <algorithm>
#include <cmath>
#include <utility>

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
  Matrix eye = Matrix::Identity(q.cols());
  return (gram - eye).MaxAbs();
}

TEST(OrthonormalBasisTest, FullRankInput) {
  Rng rng(3);
  Matrix a = RandomMatrix(6, 3, rng);
  Matrix basis = OrthonormalBasis(a);
  EXPECT_EQ(basis.cols(), 3u);
  EXPECT_LT(OrthonormalityError(basis), 1e-9);
}

TEST(OrthonormalBasisTest, DetectsRankDeficiency) {
  // Third column is the sum of the first two.
  Matrix a(4, 3);
  Rng rng(4);
  for (size_t i = 0; i < 4; ++i) {
    a(i, 0) = rng.Uniform(-1.0, 1.0);
    a(i, 1) = rng.Uniform(-1.0, 1.0);
    a(i, 2) = a(i, 0) + a(i, 1);
  }
  Matrix basis = OrthonormalBasis(a);
  EXPECT_EQ(basis.cols(), 2u);
}

TEST(OrthonormalBasisTest, ZeroMatrixGivesEmptyBasis) {
  Matrix a(3, 2);
  Matrix basis = OrthonormalBasis(a);
  EXPECT_TRUE(basis.empty());
}

TEST(OrthonormalBasisTest, SpansInputColumns) {
  Rng rng(5);
  Matrix a = RandomMatrix(5, 3, rng);
  Matrix basis = OrthonormalBasis(a);
  // Every input column must be reproduced by its projection onto the
  // basis: a_j = B B^T a_j.
  for (size_t j = 0; j < a.cols(); ++j) {
    Vector col = a.Col(j);
    Vector coeff(basis.cols());
    for (size_t k = 0; k < basis.cols(); ++k) {
      double d = 0.0;
      for (size_t i = 0; i < col.size(); ++i) d += basis(i, k) * col[i];
      coeff[k] = d;
    }
    Vector recon(col.size());
    for (size_t k = 0; k < basis.cols(); ++k) {
      for (size_t i = 0; i < col.size(); ++i) {
        recon[i] += basis(i, k) * coeff[k];
      }
    }
    EXPECT_LT((recon - col).InfNorm(), 1e-9);
  }
}

// Projection error of every column of `a` onto span(basis): max |a - B B^T a|.
double ReconstructionError(const Matrix& basis, const Matrix& a) {
  Matrix recon = basis * basis.TransposedTimes(a);
  return (recon - a).MaxAbs();
}

class QrPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(QrPropertyTest, ReconstructionAndOrthogonality) {
  auto [rows, cols] = GetParam();
  Rng rng(rows * 31 + cols);
  Matrix a = RandomMatrix(rows, cols, rng);
  Matrix basis = OrthonormalBasis(a);
  // A random matrix has full rank, so the basis spans min(rows, cols).
  EXPECT_EQ(basis.rows(), rows);
  EXPECT_EQ(basis.cols(), std::min(rows, cols));
  EXPECT_LT(OrthonormalityError(basis), 1e-9);
  EXPECT_LT(ReconstructionError(basis, a), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrPropertyTest,
    ::testing::Values(std::make_pair<size_t, size_t>(1, 1),
                      std::make_pair<size_t, size_t>(4, 4),
                      std::make_pair<size_t, size_t>(10, 3),
                      std::make_pair<size_t, size_t>(3, 10),
                      std::make_pair<size_t, size_t>(30, 30),
                      std::make_pair<size_t, size_t>(50, 12)));

}  // namespace
}  // namespace phasorwatch::linalg
