#include "linalg/views.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace phasorwatch::linalg {

bool RangesOverlap(const double* a, size_t an, const double* b, size_t bn) {
  if (an == 0 || bn == 0) return false;
  // Comparing pointers into distinct allocations is formally unspecified;
  // uintptr_t comparison is the portable idiom for overlap detection.
  auto lo_a = reinterpret_cast<uintptr_t>(a);
  auto hi_a = reinterpret_cast<uintptr_t>(a + an);
  auto lo_b = reinterpret_cast<uintptr_t>(b);
  auto hi_b = reinterpret_cast<uintptr_t>(b + bn);
  return lo_a < hi_b && lo_b < hi_a;
}

bool ViewOverlaps(ConstMatrixView v, const double* p, size_t n) {
  if (v.empty()) return false;
  // The addressable span of a strided view runs from its first element
  // to the last element of its last row.
  size_t span = (v.rows() - 1) * v.stride() + v.cols();
  return RangesOverlap(v.data(), span, p, n);
}

namespace {

size_t OutSpan(MutableMatrixView out) {
  if (out.empty()) return 0;
  return (out.rows() - 1) * out.stride() + out.cols();
}

}  // namespace

PW_NO_ALLOC void MultiplyInto(ConstMatrixView a, ConstMatrixView b, MutableMatrixView out) {
  PW_CHECK_EQ(a.cols(), b.rows());
  PW_CHECK_EQ(out.rows(), a.rows());
  PW_CHECK_EQ(out.cols(), b.cols());
  PW_CHECK(!ViewOverlaps(a, out.data(), OutSpan(out)));
  PW_CHECK(!ViewOverlaps(b, out.data(), OutSpan(out)));
  out.Fill(0.0);
  // Same i-k-j order and zero-skip as Matrix::operator*: results are
  // bit-identical to the value API.
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i);
    double* out_row = out.row(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      double av = a_row[k];
      if (av == 0.0) continue;
      const double* b_row = b.row(k);
      for (size_t j = 0; j < b.cols(); ++j) out_row[j] += av * b_row[j];
    }
  }
}

PW_NO_ALLOC void MatVecInto(ConstMatrixView a, ConstVectorView x, VectorView out) {
  PW_CHECK_EQ(a.cols(), x.size());
  PW_CHECK_EQ(out.size(), a.rows());
  PW_CHECK(!ViewOverlaps(a, out.data(), out.size()));
  PW_CHECK(!RangesOverlap(x.data(), x.size(), out.data(), out.size()));
  for (size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    const double* row = a.row(i);
    for (size_t j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    out[i] = s;
  }
}

PW_NO_ALLOC void TransposedMatVecInto(ConstMatrixView a, ConstVectorView x,
                                      VectorView out) {
  PW_CHECK_EQ(a.rows(), x.size());
  PW_CHECK_EQ(out.size(), a.cols());
  PW_CHECK(!ViewOverlaps(a, out.data(), out.size()));
  PW_CHECK(!RangesOverlap(x.data(), x.size(), out.data(), out.size()));
  double* acc = out.data();
  out.Fill(0.0);
  // Row by row: each out[j] adds its terms in ascending row order, and
  // the update streams one contiguous row of `a`.
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row(i);
    const double xi = x.data()[i];
    for (size_t j = 0; j < a.cols(); ++j) acc[j] += row[j] * xi;
  }
}

PW_NO_ALLOC void TransposedTimesInto(ConstMatrixView a, ConstMatrixView b,
                         MutableMatrixView out) {
  PW_CHECK_EQ(a.rows(), b.rows());
  PW_CHECK_EQ(out.rows(), a.cols());
  PW_CHECK_EQ(out.cols(), b.cols());
  PW_CHECK(!ViewOverlaps(a, out.data(), OutSpan(out)));
  PW_CHECK(!ViewOverlaps(b, out.data(), OutSpan(out)));
  out.Fill(0.0);
  // Same k-i-j order and zero-skip as Matrix::TransposedTimes.
  for (size_t k = 0; k < a.rows(); ++k) {
    const double* a_row = a.row(k);
    const double* b_row = b.row(k);
    for (size_t i = 0; i < a.cols(); ++i) {
      double av = a_row[i];
      if (av == 0.0) continue;
      double* out_row = out.row(i);
      for (size_t j = 0; j < b.cols(); ++j) out_row[j] += av * b_row[j];
    }
  }
}

PW_NO_ALLOC void TransposeInto(ConstMatrixView a, MutableMatrixView out) {
  PW_CHECK_EQ(out.rows(), a.cols());
  PW_CHECK_EQ(out.cols(), a.rows());
  PW_CHECK(!ViewOverlaps(a, out.data(), OutSpan(out)));
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i);
    for (size_t j = 0; j < a.cols(); ++j) out(j, i) = a_row[j];
  }
}

PW_NO_ALLOC void SelectSubmatrixInto(ConstMatrixView a, const std::vector<size_t>& rows,
                         const std::vector<size_t>& cols,
                         MutableMatrixView out) {
  PW_CHECK_EQ(out.rows(), rows.size());
  PW_CHECK_EQ(out.cols(), cols.size());
  PW_CHECK(!ViewOverlaps(a, out.data(), OutSpan(out)));
  // Validate the index sets once up front: the copy loop below touches
  // rows.size() * cols.size() elements, so per-element PW_CHECKs would
  // dominate the kernel. The debug build keeps the inner-loop contract.
  for (size_t i = 0; i < rows.size(); ++i) PW_CHECK_LT(rows[i], a.rows());
  for (size_t j = 0; j < cols.size(); ++j) PW_CHECK_LT(cols[j], a.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* a_row = a.row(rows[i]);
    double* out_row = out.row(i);
    for (size_t j = 0; j < cols.size(); ++j) {
      PW_DCHECK_BOUND(cols[j], a.cols());
      out_row[j] = a_row[cols[j]];
    }
  }
}

PW_NO_ALLOC void SubtractInto(ConstMatrixView a, ConstMatrixView b, MutableMatrixView out) {
  PW_CHECK_EQ(a.rows(), b.rows());
  PW_CHECK_EQ(a.cols(), b.cols());
  PW_CHECK_EQ(out.rows(), a.rows());
  PW_CHECK_EQ(out.cols(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i);
    const double* b_row = b.row(i);
    double* out_row = out.row(i);
    for (size_t j = 0; j < a.cols(); ++j) out_row[j] = a_row[j] - b_row[j];
  }
}

PW_NO_ALLOC void CopyInto(ConstMatrixView src, MutableMatrixView dst) {
  PW_CHECK_EQ(dst.rows(), src.rows());
  PW_CHECK_EQ(dst.cols(), src.cols());
  PW_CHECK(!ViewOverlaps(src, dst.data(), OutSpan(dst)));
  for (size_t i = 0; i < src.rows(); ++i) {
    const double* s = src.row(i);
    double* d = dst.row(i);
    for (size_t j = 0; j < src.cols(); ++j) d[j] = s[j];
  }
}

PW_NO_ALLOC double Norm(ConstVectorView x) {
  const double* data = x.data();
  double max_abs = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(data[i]));
  }
  if (max_abs == 0.0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double scaled = data[i] / max_abs;
    sum += scaled * scaled;
  }
  return max_abs * std::sqrt(sum);
}

namespace {

// y = sum_i a.row(row_of(i)) * z_i with z_i = x[g(i)] - mean[g(i)],
// g(i) = gather[i] (or i when `gather` is empty), over `count` rows.
// Shared by the two centered kernels below; `row_of` picks whether the
// rows of `a` are gathered too.
template <typename RowOf>
PW_NO_ALLOC void CenteredRowSumInto(ConstMatrixView a, RowOf row_of,
                                    size_t count, ConstVectorView x,
                                    ConstVectorView mean,
                                    const std::vector<size_t>& gather,
                                    VectorView y) {
  PW_CHECK_EQ(mean.size(), x.size());
  PW_CHECK_EQ(y.size(), a.cols());
  PW_CHECK(!ViewOverlaps(a, y.data(), y.size()));
  PW_CHECK(!RangesOverlap(x.data(), x.size(), y.data(), y.size()));
  PW_CHECK(!RangesOverlap(mean.data(), mean.size(), y.data(), y.size()));
  const size_t k = a.cols();
  double* acc = y.data();
  y.Fill(0.0);
  auto centered = [&](size_t i) {
    const size_t src = gather.empty() ? i : gather[i];
    PW_CHECK_LT(src, x.size());
    return x.data()[src] - mean.data()[src];
  };
  // Four rows per pass keep each accumulator in a register across them;
  // the adds still land in ascending row order.
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const double z0 = centered(i), z1 = centered(i + 1);
    const double z2 = centered(i + 2), z3 = centered(i + 3);
    const double* r0 = row_of(i);
    const double* r1 = row_of(i + 1);
    const double* r2 = row_of(i + 2);
    const double* r3 = row_of(i + 3);
    for (size_t j = 0; j < k; ++j) {
      acc[j] = (((acc[j] + r0[j] * z0) + r1[j] * z1) + r2[j] * z2) +
               r3[j] * z3;
    }
  }
  for (; i < count; ++i) {
    const double z = centered(i);
    const double* row = row_of(i);
    for (size_t j = 0; j < k; ++j) acc[j] += row[j] * z;
  }
}

}  // namespace

PW_NO_ALLOC void TransposedTimesCenteredInto(ConstMatrixView a,
                                             ConstVectorView x,
                                             ConstVectorView mean,
                                             const std::vector<size_t>& gather,
                                             VectorView y) {
  PW_CHECK_EQ(a.rows(), gather.empty() ? x.size() : gather.size());
  CenteredRowSumInto(
      a, [&](size_t i) { return a.row(i); }, a.rows(), x, mean, gather, y);
}

PW_NO_ALLOC void GatheredTransposedTimesCenteredInto(
    ConstMatrixView a, ConstVectorView x, ConstVectorView mean,
    const std::vector<size_t>& rows, VectorView y) {
  PW_CHECK_EQ(a.rows(), x.size());
  CenteredRowSumInto(
      a, [&](size_t i) { return a.row(rows[i]); }, rows.size(), x, mean,
      rows, y);
}

PW_NO_ALLOC void ProjectOffRowSpanInto(ConstMatrixView q, VectorView y,
                                       VectorView h) {
  PW_CHECK_EQ(y.size(), q.cols());
  PW_CHECK_EQ(h.size(), q.rows());
  PW_CHECK(!ViewOverlaps(q, y.data(), y.size()));
  PW_CHECK(!ViewOverlaps(q, h.data(), h.size()));
  PW_CHECK(!RangesOverlap(y.data(), y.size(), h.data(), h.size()));
  const size_t k = q.cols();
  double* v = y.data();
  // h = Q y, one row dot each, then y -= Q^T h row by row, so each y_j
  // subtracts its terms in ascending row order. Four interleaved
  // partial sums break each dot's dependent add chain (fixed order, so
  // the result is deterministic).
  for (size_t i = 0; i < q.rows(); ++i) {
    const double* row = q.row(i);
    double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
    size_t j = 0;
    for (; j + 4 <= k; j += 4) {
      p0 += row[j] * v[j];
      p1 += row[j + 1] * v[j + 1];
      p2 += row[j + 2] * v[j + 2];
      p3 += row[j + 3] * v[j + 3];
    }
    for (; j < k; ++j) p0 += row[j] * v[j];
    h.data()[i] = (p0 + p1) + (p2 + p3);
  }
  for (size_t i = 0; i < q.rows(); ++i) {
    const double* row = q.row(i);
    const double hi = h.data()[i];
    for (size_t j = 0; j < k; ++j) v[j] -= row[j] * hi;
  }
}

PW_NO_ALLOC double TransposedTimesNormSq(ConstMatrixView a, ConstVectorView x,
                                         ConstVectorView mean,
                                         const std::vector<size_t>& gather) {
  // Column sums do not depend on each other, so a wide `a` is walked in
  // blocks of kBlock columns: every column sum and the outer sum keep
  // their order. The loop runs at least once, so an `a` without columns
  // still gets the inner kernel's shape checks.
  constexpr size_t kBlock = 64;
  double acc[kBlock];
  double sum = 0.0;
  size_t j0 = 0;
  do {
    const size_t width = std::min(kBlock, a.cols() - j0);
    TransposedTimesCenteredInto(a.Block(0, j0, a.rows(), width), x, mean,
                                gather, VectorView(acc, width));
    for (size_t j = 0; j < width; ++j) sum += acc[j] * acc[j];
    j0 += width;
  } while (j0 < a.cols());
  return sum;
}

}  // namespace phasorwatch::linalg
