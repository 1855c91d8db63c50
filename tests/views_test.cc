#include "linalg/views.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace phasorwatch::linalg {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng.Uniform(-2.0, 2.0);
  }
  return m;
}

Vector RandomVector(size_t n, Rng& rng) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.Uniform(-2.0, 2.0);
  return v;
}

// The whole point of the destination-passing kernels is bit-identity
// with the value-semantic operations, so every parity check below uses
// EXPECT_EQ on raw doubles, not a tolerance.

TEST(ViewsTest, MultiplyIntoMatchesOperatorBitExact) {
  Rng rng(11);
  Matrix a = RandomMatrix(7, 5, rng);
  Matrix b = RandomMatrix(5, 9, rng);
  a(2, 3) = 0.0;  // exercise the zero-skip branch
  Matrix expected = a * b;
  Matrix out(7, 9);
  MultiplyInto(a, b, out);
  for (size_t r = 0; r < expected.rows(); ++r) {
    for (size_t c = 0; c < expected.cols(); ++c) {
      EXPECT_EQ(out(r, c), expected(r, c));
    }
  }
}

TEST(ViewsTest, MatVecIntoMatchesOperatorBitExact) {
  Rng rng(12);
  Matrix a = RandomMatrix(6, 8, rng);
  Vector x = RandomVector(8, rng);
  Vector expected = a * x;
  Vector out(6);
  MatVecInto(a, x, out);
  for (size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(out[i], expected[i]);
}

TEST(ViewsTest, TransposedTimesIntoMatchesBitExact) {
  Rng rng(13);
  Matrix a = RandomMatrix(6, 4, rng);
  Matrix b = RandomMatrix(6, 5, rng);
  Matrix expected = a.TransposedTimes(b);
  Matrix out(4, 5);
  TransposedTimesInto(a, b, out);
  for (size_t r = 0; r < expected.rows(); ++r) {
    for (size_t c = 0; c < expected.cols(); ++c) {
      EXPECT_EQ(out(r, c), expected(r, c));
    }
  }
}

TEST(ViewsTest, TransposeIntoMatchesBitExact) {
  Rng rng(14);
  Matrix a = RandomMatrix(5, 7, rng);
  Matrix expected = a.Transposed();
  Matrix out(7, 5);
  TransposeInto(a, out);
  for (size_t r = 0; r < expected.rows(); ++r) {
    for (size_t c = 0; c < expected.cols(); ++c) {
      EXPECT_EQ(out(r, c), expected(r, c));
    }
  }
}

TEST(ViewsTest, SelectSubmatrixSinglePassMatchesComposition) {
  Rng rng(15);
  Matrix a = RandomMatrix(8, 8, rng);
  std::vector<size_t> rows = {1, 3, 6};
  std::vector<size_t> cols = {0, 2, 5, 7};
  Matrix expected = a.SelectRows(rows).SelectCols(cols);
  Matrix single = a.SelectSubmatrix(rows, cols);
  ASSERT_EQ(single.rows(), rows.size());
  ASSERT_EQ(single.cols(), cols.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      EXPECT_EQ(single(r, c), expected(r, c));
    }
  }
  Matrix out(rows.size(), cols.size());
  SelectSubmatrixInto(a, rows, cols, out);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      EXPECT_EQ(out(r, c), expected(r, c));
    }
  }
}

TEST(ViewsTest, StridedBlockViewReadsTheRightCells) {
  Rng rng(16);
  Matrix a = RandomMatrix(6, 6, rng);
  ConstMatrixView block = ConstMatrixView(a).Block(1, 2, 3, 3);
  EXPECT_EQ(block.stride(), 6u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(block(r, c), a(1 + r, 2 + c));
    }
  }
}

TEST(ViewsTest, StridedDestinationWritesOnlyTheBlock) {
  Matrix dst(5, 5);
  MutableMatrixView(dst).Fill(-1.0);
  Rng rng(17);
  Matrix a = RandomMatrix(2, 3, rng);
  Matrix b = RandomMatrix(3, 2, rng);
  Matrix expected = a * b;
  MultiplyInto(a, b, MutableMatrixView(dst).Block(1, 1, 2, 2));
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      if (r >= 1 && r <= 2 && c >= 1 && c <= 2) {
        EXPECT_EQ(dst(r, c), expected(r - 1, c - 1));
      } else {
        EXPECT_EQ(dst(r, c), -1.0);
      }
    }
  }
}

TEST(ViewsTest, CopyIntoAndSubtractInto) {
  Rng rng(18);
  Matrix a = RandomMatrix(4, 4, rng);
  Matrix b = RandomMatrix(4, 4, rng);
  Matrix copy(4, 4);
  CopyInto(a, copy);
  Matrix diff(4, 4);
  SubtractInto(a, b, diff);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(copy(r, c), a(r, c));
      EXPECT_EQ(diff(r, c), a(r, c) - b(r, c));
    }
  }
}

// Column-walk reference for TransposedTimesNormSq: one dot per column
// of `a`, each over the rows in ascending order. The kernel walks rows
// instead and must reproduce every rounding of this order.
double ColumnWalkNormSq(ConstMatrixView a, const Vector& x, const Vector& mean,
                        const std::vector<size_t>& gather) {
  double sum = 0.0;
  for (size_t j = 0; j < a.cols(); ++j) {
    double dot = 0.0;
    for (size_t i = 0; i < a.rows(); ++i) {
      const size_t src = gather.empty() ? i : gather[i];
      dot += a(i, j) * (x[src] - mean[src]);
    }
    sum += dot * dot;
  }
  return sum;
}

TEST(ViewsTest, TransposedTimesNormSqMatchesColumnWalkBitExact) {
  Rng rng(21);
  const size_t n = 60;
  // A scattered, non-monotone gather over half the coordinates.
  std::vector<size_t> gather;
  for (size_t i = 0; i < n; i += 2) gather.push_back((7 * i + 3) % n);
  // 63/64/65, 128/129 and 300 straddle the kernel's 64-column blocks.
  for (size_t k :
       {1u, 3u, 28u, 60u, 61u, 63u, 64u, 65u, 128u, 129u, 300u}) {
    Vector x = RandomVector(n, rng);
    Vector mean = RandomVector(n, rng);
    Matrix basis = RandomMatrix(n, k, rng);
    EXPECT_EQ(TransposedTimesNormSq(basis, x, mean, {}),
              ColumnWalkNormSq(basis, x, mean, {}))
        << "identity, k=" << k;
    Matrix regressor_t = RandomMatrix(gather.size(), k, rng);
    EXPECT_EQ(TransposedTimesNormSq(regressor_t, x, mean, gather),
              ColumnWalkNormSq(regressor_t, x, mean, gather))
        << "gathered, k=" << k;
  }
}

TEST(ViewsTest, TransposedTimesNormSqReadsStridedBlocks) {
  Rng rng(22);
  Matrix big = RandomMatrix(12, 9, rng);
  ConstMatrixView block = ConstMatrixView(big).Block(2, 3, 10, 5);
  Vector x = RandomVector(10, rng);
  Vector mean = RandomVector(10, rng);
  EXPECT_EQ(TransposedTimesNormSq(block, x, mean, {}),
            ColumnWalkNormSq(block, x, mean, {}));
}

TEST(ViewsTest, TransposedTimesNormSqOfNothingIsZero) {
  Rng rng(23);
  Vector x = RandomVector(4, rng);
  Vector mean = RandomVector(4, rng);
  // No columns: no constraint to violate.
  EXPECT_EQ(TransposedTimesNormSq(Matrix(4, 0), x, mean, {}), 0.0);
  // No rows: an empty sample (no coordinates at all).
  EXPECT_EQ(TransposedTimesNormSq(Matrix(0, 3), Vector(), Vector(), {}), 0.0);
}

TEST(ViewsTest, RangesOverlapDetection) {
  double buf[10] = {};
  EXPECT_TRUE(RangesOverlap(buf, 5, buf + 4, 3));
  EXPECT_FALSE(RangesOverlap(buf, 5, buf + 5, 5));
  EXPECT_FALSE(RangesOverlap(buf, 0, buf, 5));  // empty range
}

TEST(ViewsDeathTest, AliasedDestinationAborts) {
  Rng rng(19);
  Matrix a = RandomMatrix(4, 4, rng);
  Matrix b = RandomMatrix(4, 4, rng);
  // Writing the product over one of its own inputs would corrupt the
  // remaining reads; the kernel must refuse.
  EXPECT_DEATH(MultiplyInto(a, b, a), "PW_CHECK failed");
}

TEST(ViewsDeathTest, TransposedTimesNormSqRejectsBadGather) {
  Rng rng(25);
  Matrix a = RandomMatrix(3, 2, rng);
  Vector x = RandomVector(5, rng);
  Vector mean = RandomVector(5, rng);
  // One row per gathered coordinate, and every index inside the sample.
  const std::vector<size_t> short_gather = {0, 1};
  const std::vector<size_t> outside_gather = {0, 1, 5};
  EXPECT_DEATH(TransposedTimesNormSq(a, x, mean, short_gather),
               "PW_CHECK failed");
  EXPECT_DEATH(TransposedTimesNormSq(a, x, mean, outside_gather),
               "PW_CHECK failed");
}

TEST(ViewsDeathTest, ShapeMismatchAborts) {
  Rng rng(20);
  Matrix a = RandomMatrix(3, 4, rng);
  Matrix b = RandomMatrix(4, 2, rng);
  Matrix wrong(3, 3);
  EXPECT_DEATH(MultiplyInto(a, b, wrong), "PW_CHECK failed");
}

}  // namespace
}  // namespace phasorwatch::linalg
