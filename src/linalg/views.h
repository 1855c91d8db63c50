#ifndef PHASORWATCH_LINALG_VIEWS_H_
#define PHASORWATCH_LINALG_VIEWS_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "linalg/matrix.h"

namespace phasorwatch::linalg {

/// Non-owning views over dense double data, plus destination-passing
/// kernels that write into caller-supplied storage.
///
/// The value-semantic Matrix/Vector API stays the source of truth for
/// results: every kernel here uses the exact loop order of its
/// value-returning twin, so `MultiplyInto(a, b, out)` produces the
/// bit-identical doubles of `a * b`. The views exist so hot paths
/// (per-sample detection, Newton-Raphson iterations) can run against
/// caller-owned buffers or fixed stack blocks instead of churning the
/// heap.
///
/// Lifetime: a view never owns memory and must not outlive the Matrix,
/// Vector, or buffer it was taken from. Kernels require
/// the destination to be disjoint from every input (checked with
/// PW_CHECK — aliased destination-passing silently corrupts results).

/// Read-only view of `size` doubles.
class ConstVectorView {
 public:
  ConstVectorView() = default;
  ConstVectorView(const double* data, size_t size)
      : data_(data), size_(size) {}
  /// Implicit: any Vector is viewable.
  ConstVectorView(const Vector& v)  // NOLINT(google-explicit-constructor)
      : data_(v.data()), size_(v.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const double* data() const { return data_; }
  double operator[](size_t i) const {
    PW_CHECK_LT(i, size_);
    return data_[i];
  }

 private:
  const double* data_ = nullptr;
  size_t size_ = 0;
};

/// Mutable view of `size` doubles.
class VectorView {
 public:
  VectorView() = default;
  VectorView(double* data, size_t size) : data_(data), size_(size) {}
  /// Implicit: any Vector is viewable.
  VectorView(Vector& v)  // NOLINT(google-explicit-constructor)
      : data_(v.data()), size_(v.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double* data() const { return data_; }
  double& operator[](size_t i) const {
    PW_CHECK_LT(i, size_);
    return data_[i];
  }

  operator ConstVectorView() const {  // NOLINT(google-explicit-constructor)
    return ConstVectorView(data_, size_);
  }

  void Fill(double value) const {
    for (size_t i = 0; i < size_; ++i) data_[i] = value;
  }

 private:
  double* data_ = nullptr;
  size_t size_ = 0;
};

/// Read-only rows x cols view with a row stride (stride >= cols), so a
/// contiguous block of a larger matrix is viewable without copying.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const double* data, size_t rows, size_t cols, size_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    PW_CHECK_GE(stride, cols);
  }
  ConstMatrixView(const double* data, size_t rows, size_t cols)
      : ConstMatrixView(data, rows, cols, cols) {}
  /// Implicit: any Matrix is viewable.
  ConstMatrixView(const Matrix& m)  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()), stride_(m.cols()) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  const double* data() const { return data_; }
  const double* row(size_t r) const {
    PW_CHECK_LT(r, rows_);
    return data_ + r * stride_;
  }
  double operator()(size_t r, size_t c) const {
    PW_CHECK_LT(r, rows_);
    PW_CHECK_LT(c, cols_);
    return data_[r * stride_ + c];
  }

  /// A rows x cols block starting at (r0, c0), sharing this view's data.
  ConstMatrixView Block(size_t r0, size_t c0, size_t rows, size_t cols) const {
    PW_CHECK_LE(r0 + rows, rows_);
    PW_CHECK_LE(c0 + cols, cols_);
    return ConstMatrixView(data_ + r0 * stride_ + c0, rows, cols, stride_);
  }

 private:
  const double* data_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
};

/// Mutable rows x cols view with a row stride.
class MutableMatrixView {
 public:
  MutableMatrixView() = default;
  MutableMatrixView(double* data, size_t rows, size_t cols, size_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    PW_CHECK_GE(stride, cols);
  }
  MutableMatrixView(double* data, size_t rows, size_t cols)
      : MutableMatrixView(data, rows, cols, cols) {}
  /// Implicit: any Matrix is viewable.
  MutableMatrixView(Matrix& m)  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()), stride_(m.cols()) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  double* data() const { return data_; }
  double* row(size_t r) const {
    PW_CHECK_LT(r, rows_);
    return data_ + r * stride_;
  }
  double& operator()(size_t r, size_t c) const {
    PW_CHECK_LT(r, rows_);
    PW_CHECK_LT(c, cols_);
    return data_[r * stride_ + c];
  }

  operator ConstMatrixView() const {  // NOLINT(google-explicit-constructor)
    return ConstMatrixView(data_, rows_, cols_, stride_);
  }

  MutableMatrixView Block(size_t r0, size_t c0, size_t rows,
                          size_t cols) const {
    PW_CHECK_LE(r0 + rows, rows_);
    PW_CHECK_LE(c0 + cols, cols_);
    return MutableMatrixView(data_ + r0 * stride_ + c0, rows, cols, stride_);
  }

  void Fill(double value) const {
    for (size_t r = 0; r < rows_; ++r) {
      double* p = data_ + r * stride_;
      for (size_t c = 0; c < cols_; ++c) p[c] = value;
    }
  }

 private:
  double* data_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
};

/// True when the two address ranges [a, a+an) and [b, b+bn) overlap.
/// Exposed for tests; kernels use it to reject aliased destinations.
bool RangesOverlap(const double* a, size_t an, const double* b, size_t bn);

/// True when the view's addressable storage overlaps the range.
bool ViewOverlaps(ConstMatrixView v, const double* p, size_t n);

// --- destination-passing kernels --------------------------------------
//
// Every kernel checks shapes and destination disjointness with
// PW_CHECK, then writes the destination completely (no prior zeroing
// needed by the caller). Loop orders match the value-semantic Matrix
// operations exactly, so results are bit-identical.

/// out = a * b (matrix product). out must be a.rows() x b.cols().
PW_NO_ALLOC void MultiplyInto(ConstMatrixView a, ConstMatrixView b, MutableMatrixView out);

/// out = a * x (matrix-vector product). out.size() == a.rows().
PW_NO_ALLOC void MatVecInto(ConstMatrixView a, ConstVectorView x, VectorView out);

/// out = a^T * x (matrix-vector product with the transpose), walking
/// the rows of `a`. out.size() == a.cols(), x.size() == a.rows().
PW_NO_ALLOC void TransposedMatVecInto(ConstMatrixView a, ConstVectorView x,
                                      VectorView out);

/// out = a^T * b without materializing the transpose.
/// out must be a.cols() x b.cols().
PW_NO_ALLOC void TransposedTimesInto(ConstMatrixView a, ConstMatrixView b,
                         MutableMatrixView out);

/// out = a^T. out must be a.cols() x a.rows().
PW_NO_ALLOC void TransposeInto(ConstMatrixView a, MutableMatrixView out);

/// out(i, j) = a(rows[i], cols[j]) in a single pass (no intermediate
/// row-slice). out must be rows.size() x cols.size().
PW_NO_ALLOC void SelectSubmatrixInto(ConstMatrixView a, const std::vector<size_t>& rows,
                         const std::vector<size_t>& cols,
                         MutableMatrixView out);

/// out = a - b, elementwise. Shapes must match.
PW_NO_ALLOC void SubtractInto(ConstMatrixView a, ConstMatrixView b, MutableMatrixView out);

/// Copies src into dst (shapes must match; dst disjoint from src).
PW_NO_ALLOC void CopyInto(ConstMatrixView src, MutableMatrixView dst);

/// Euclidean norm of x by scaled accumulation, which cannot overflow
/// for large entries: the kernel behind Vector::Norm.
PW_NO_ALLOC double Norm(ConstVectorView x);

/// y = a^T z, with z gathered and centered as in TransposedTimesNormSq
/// below (same loop order, so summing y_j^2 over j ascending gives that
/// kernel's double bit for bit). y.size() must equal a.cols() and y
/// must be disjoint from a, x and mean.
PW_NO_ALLOC void TransposedTimesCenteredInto(ConstMatrixView a,
                                             ConstVectorView x,
                                             ConstVectorView mean,
                                             const std::vector<size_t>& gather,
                                             VectorView y);

/// y = a_G^T z_G: TransposedTimesCenteredInto with the rows of `a`
/// gathered too, y = sum_i a.row(rows[i]) * (x[rows[i]] - mean[rows[i]])
/// over i ascending (same four-row loop). a.rows() must equal x.size().
/// The first step of a projector entry (ProximityEngine): C_D z_D from
/// the shared constraint-basis rows of the coordinate set D.
PW_NO_ALLOC void GatheredTransposedTimesCenteredInto(
    ConstMatrixView a, ConstVectorView x, ConstVectorView mean,
    const std::vector<size_t>& rows, VectorView y);

/// y <- (I - q^T q) y in place, for q with orthonormal rows: h = q y
/// (one row dot each), then y -= q^T h. What is left of y in the row
/// span of q is rounding of the input's norm; a second call cuts it to
/// rounding of the result's (classical Gram-Schmidt with one
/// reorthogonalization). h.size() must equal q.rows() and
/// y.size() == q.cols(); y, h and q must be pairwise disjoint. The
/// projector off range(C_M) of ProximityEngine's projector entries.
PW_NO_ALLOC void ProjectOffRowSpanInto(ConstMatrixView q, VectorView y,
                                       VectorView h);

/// ||a^T z||^2 = sum_j (sum_i a(i, j) * z_i)^2, with
/// z_i = x[g(i)] - mean[g(i)] where g(i) = gather[i], or g(i) = i when
/// `gather` is empty. a.rows() must equal gather.size() (x.size() for
/// the identity). The sample-to-subspace proximity kernel: `a` is a
/// constraint basis or a stored Eq. 9 regressor transpose.
///
/// Walks `a` by rows, four per pass, into column accumulators held in a
/// fixed stack block of 64 doubles (wider `a` is walked one block of
/// columns at a time), so a row-major `a` streams contiguously and the
/// accumulator update vectorizes. Each inner sum still runs over i
/// ascending and the outer sum over j ascending, so the result is
/// bit-identical to taking the column dots one at a time.
PW_NO_ALLOC double TransposedTimesNormSq(ConstMatrixView a, ConstVectorView x,
                                         ConstVectorView mean,
                                         const std::vector<size_t>& gather);

}  // namespace phasorwatch::linalg

#endif  // PHASORWATCH_LINALG_VIEWS_H_
