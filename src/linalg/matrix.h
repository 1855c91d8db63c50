#ifndef PHASORWATCH_LINALG_MATRIX_H_
#define PHASORWATCH_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"

namespace phasorwatch::linalg {

class Matrix;

/// Dense real vector of doubles.
///
/// Deliberately minimal: the library's matrices are at most a few hundred
/// rows (IEEE 118-bus data), so clarity beats BLAS-level tuning.
class Vector {
 public:
  Vector() = default;
  explicit Vector(size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> values) : data_(values) {}
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](size_t i) {
    PW_CHECK_LT(i, data_.size());
    return data_[i];
  }
  double operator[](size_t i) const {
    PW_CHECK_LT(i, data_.size());
    return data_[i];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  const std::vector<double>& values() const { return data_; }

  /// Resizes to `n` entries, all set to `fill`. Unlike constructing a
  /// fresh Vector, this reuses the existing capacity, so repeated
  /// Assign in a loop stops allocating once the high-water size is hit.
  void Assign(size_t n, double fill = 0.0) { data_.assign(n, fill); }

  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(double scalar);

  friend Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
  friend Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
  friend Vector operator*(Vector lhs, double s) { return lhs *= s; }
  friend Vector operator*(double s, Vector rhs) { return rhs *= s; }

  /// Euclidean (L2) norm.
  double Norm() const;
  /// Maximum absolute entry; 0 for an empty vector.
  double InfNorm() const;
  /// Sum of entries.
  double Sum() const;
  /// Arithmetic mean; requires a non-empty vector.
  double Mean() const;

  /// Dot product; sizes must match.
  double Dot(const Vector& other) const;

  /// Entries at the given indices, in order.
  Vector Gather(const std::vector<size_t>& indices) const;

  std::string ToString(int precision = 4) const;

 private:
  std::vector<double> data_;
};

/// Dense row-major real matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Builds from nested initializer lists; all rows must have equal size.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(size_t n);
  /// Diagonal matrix from a vector.
  static Matrix Diag(const Vector& d);
  /// Stacks column vectors side by side; all must have equal length.
  static Matrix FromColumns(const std::vector<Vector>& columns);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    PW_CHECK_LT(r, rows_);
    PW_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    PW_CHECK_LT(r, rows_);
    PW_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Resizes to rows x cols, all entries set to `fill`, reusing the
  /// existing capacity (see Vector::Assign).
  void Assign(size_t rows, size_t cols, double fill = 0.0) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

  /// Matrix product; inner dimensions must agree.
  Matrix operator*(const Matrix& rhs) const;
  /// Matrix-vector product; `v.size()` must equal `cols()`.
  Vector operator*(const Vector& v) const;

  Matrix Transposed() const;

  /// this^T * other, without materializing the transpose.
  Matrix TransposedTimes(const Matrix& other) const;

  Vector Row(size_t r) const;
  Vector Col(size_t c) const;
  void SetRow(size_t r, const Vector& v);
  void SetCol(size_t c, const Vector& v);

  /// Rows at `indices` (in order) as a new matrix.
  Matrix SelectRows(const std::vector<size_t>& indices) const;
  /// Columns at `indices` (in order) as a new matrix.
  Matrix SelectCols(const std::vector<size_t>& indices) const;
  /// out(i, j) = (*this)(rows[i], cols[j]) in one pass — equivalent to
  /// SelectRows(rows).SelectCols(cols) without the intermediate matrix.
  Matrix SelectSubmatrix(const std::vector<size_t>& rows,
                         const std::vector<size_t>& cols) const;

  /// Horizontal concatenation [this | other]; row counts must match.
  /// Either side may be empty.
  Matrix ConcatCols(const Matrix& other) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;
  /// Maximum absolute entry.
  double MaxAbs() const;

  /// Column-wise means as a vector of length cols().
  Vector ColMeans() const;

  /// True if every |a_ij - b_ij| <= tol (and shapes match).
  bool AlmostEquals(const Matrix& other, double tol = 1e-9) const;

  std::string ToString(int precision = 4) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace phasorwatch::linalg

#endif  // PHASORWATCH_LINALG_MATRIX_H_
