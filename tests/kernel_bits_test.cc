// Pins the exact output bits of the two Jacobi solvers. Every trained
// model and every cached Eq. 9 factor is built from them, so a change to
// their loops that reorders any double's operations moves low bits of
// every model; these digests catch that on small seeded inputs long
// before a model byte comparison would. The digests were recorded from
// the column-walking solvers the row-walking ones replaced.

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"

namespace phasorwatch::linalg {
namespace {

// FNV-1a over the shape and the bit pattern of every entry.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void Add(double x) {
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    Add(bits);
  }
  void Add(const Matrix& m) {
    Add(uint64_t{m.rows()});
    Add(uint64_t{m.cols()});
    for (size_t i = 0; i < m.rows(); ++i) {
      for (size_t j = 0; j < m.cols(); ++j) Add(m(i, j));
    }
  }
  void Add(const Vector& v) {
    Add(uint64_t{v.size()});
    for (size_t i = 0; i < v.size(); ++i) Add(v[i]);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

Matrix SeededMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

// X^T X of a seeded rows x cols X: symmetric positive semidefinite.
Matrix Scatter(size_t rows, size_t cols, uint64_t seed) {
  Matrix x = SeededMatrix(rows, cols, seed);
  return x.TransposedTimes(x);
}

// A 60 x 8 matrix whose column 3 is zero and column 5 repeats column 1:
// rank 6, so the SVD completes two U columns by Gram-Schmidt.
Matrix RankDeficient() {
  Matrix m = SeededMatrix(60, 8, 7);
  for (size_t i = 0; i < m.rows(); ++i) {
    m(i, 3) = 0.0;
    m(i, 5) = m(i, 1);
  }
  return m;
}

uint64_t SvdDigest(const Matrix& a) {
  auto svd = ComputeSvd(a);
  EXPECT_TRUE(svd.ok()) << svd.status().ToString();
  if (!svd.ok()) return 0;
  Digest d;
  d.Add(svd->u);
  d.Add(svd->singular_values);
  d.Add(svd->v);
  return d.value();
}

uint64_t EigenDigest(const Matrix& a) {
  auto eig = ComputeSymmetricEigen(a);
  EXPECT_TRUE(eig.ok()) << eig.status().ToString();
  if (!eig.ok()) return 0;
  Digest d;
  d.Add(eig->eigenvalues);
  d.Add(eig->eigenvectors);
  return d.value();
}

TEST(KernelBitsTest, SvdTallShapes) {
  EXPECT_EQ(SvdDigest(SeededMatrix(60, 2, 1)), 0x0C2EAAF9CD9D6495ull);
  EXPECT_EQ(SvdDigest(SeededMatrix(60, 8, 2)), 0x891982647DB6D7BAull);
  EXPECT_EQ(SvdDigest(SeededMatrix(60, 16, 3)), 0x60588989A71F0280ull);
}

TEST(KernelBitsTest, SvdWideSwapsFactors) {
  EXPECT_EQ(SvdDigest(SeededMatrix(8, 60, 4)), 0x15B7F20794E57DFFull);
}

TEST(KernelBitsTest, SvdScatter) {
  EXPECT_EQ(SvdDigest(Scatter(100, 60, 5)), 0x0D9AE6B785A1863Bull);
}

TEST(KernelBitsTest, SvdRankDeficientCompletesU) {
  auto svd = ComputeSvd(RankDeficient());
  ASSERT_TRUE(svd.ok());
  EXPECT_EQ(svd->Rank(), 6u);
  EXPECT_EQ(SvdDigest(RankDeficient()), 0xAB61B24C10CDF77Aull);
}

TEST(KernelBitsTest, SvdOneByOne) {
  EXPECT_EQ(SvdDigest(Matrix{{-2.5}}), 0x91B900A05CBAAFC0ull);
}

TEST(KernelBitsTest, EigenScatter) {
  EXPECT_EQ(EigenDigest(Scatter(100, 60, 5)), 0x8AC44746923CF1DAull);
  EXPECT_EQ(EigenDigest(Scatter(30, 8, 6)), 0xDF5216E487BB6436ull);
}

TEST(KernelBitsTest, EigenRankDeficientScatter) {
  const Matrix m = RankDeficient();
  EXPECT_EQ(EigenDigest(m.TransposedTimes(m)), 0x71068DBFD8ED0F81ull);
}

TEST(KernelBitsTest, EigenOneByOne) {
  EXPECT_EQ(EigenDigest(Matrix{{-2.5}}), 0xBFC7F597119CE37Dull);
}

}  // namespace
}  // namespace phasorwatch::linalg
