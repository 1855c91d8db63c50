#include "linalg/matrix.h"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/check.h"
#include "linalg/views.h"

namespace phasorwatch::linalg {

Vector& Vector::operator+=(const Vector& other) {
  PW_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  PW_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Vector& Vector::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

double Vector::Norm() const { return linalg::Norm(*this); }

double Vector::InfNorm() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

double Vector::Sum() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

double Vector::Mean() const {
  PW_CHECK(!empty());
  return Sum() / static_cast<double>(size());
}

double Vector::Dot(const Vector& other) const {
  PW_CHECK_EQ(size(), other.size());
  double s = 0.0;
  for (size_t i = 0; i < size(); ++i) s += data_[i] * other.data_[i];
  return s;
}

Vector Vector::Gather(const std::vector<size_t>& indices) const {
  Vector out(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    PW_CHECK_LT(indices[i], size());
    out[i] = data_[indices[i]];
  }
  return out;
}

std::string Vector::ToString(int precision) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << "[";
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) os << ", ";
    os << data_[i];
  }
  os << "]";
  return os.str();
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    PW_CHECK_EQ(row.size(), cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diag(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::FromColumns(const std::vector<Vector>& columns) {
  if (columns.empty()) return Matrix();
  size_t n = columns[0].size();
  Matrix m(n, columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    PW_CHECK_EQ(columns[c].size(), n);
    for (size_t r = 0; r < n; ++r) m(r, c) = columns[c][r];
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  PW_CHECK_EQ(rows_, other.rows_);
  PW_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  PW_CHECK_EQ(rows_, other.rows_);
  PW_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  Matrix out(rows_, rhs.cols_);
  MultiplyInto(*this, rhs, out);
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  Vector out(rows_);
  MatVecInto(*this, v, out);
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  TransposeInto(*this, out);
  return out;
}

Matrix Matrix::TransposedTimes(const Matrix& other) const {
  Matrix out(cols_, other.cols_);
  TransposedTimesInto(*this, other, out);
  return out;
}

Vector Matrix::Row(size_t r) const {
  PW_CHECK_LT(r, rows_);
  Vector out(cols_);
  for (size_t j = 0; j < cols_; ++j) out[j] = data_[r * cols_ + j];
  return out;
}

Vector Matrix::Col(size_t c) const {
  PW_CHECK_LT(c, cols_);
  Vector out(rows_);
  for (size_t i = 0; i < rows_; ++i) out[i] = data_[i * cols_ + c];
  return out;
}

void Matrix::SetRow(size_t r, const Vector& v) {
  PW_CHECK_LT(r, rows_);
  PW_CHECK_EQ(v.size(), cols_);
  for (size_t j = 0; j < cols_; ++j) data_[r * cols_ + j] = v[j];
}

void Matrix::SetCol(size_t c, const Vector& v) {
  PW_CHECK_LT(c, cols_);
  PW_CHECK_EQ(v.size(), rows_);
  for (size_t i = 0; i < rows_; ++i) data_[i * cols_ + c] = v[i];
}

Matrix Matrix::SelectRows(const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    PW_CHECK_LT(indices[i], rows_);
    for (size_t j = 0; j < cols_; ++j) {
      out(i, j) = data_[indices[i] * cols_ + j];
    }
  }
  return out;
}

Matrix Matrix::SelectCols(const std::vector<size_t>& indices) const {
  Matrix out(rows_, indices.size());
  for (size_t j = 0; j < indices.size(); ++j) {
    PW_CHECK_LT(indices[j], cols_);
    for (size_t i = 0; i < rows_; ++i) {
      out(i, j) = data_[i * cols_ + indices[j]];
    }
  }
  return out;
}

Matrix Matrix::SelectSubmatrix(const std::vector<size_t>& rows,
                               const std::vector<size_t>& cols) const {
  Matrix out(rows.size(), cols.size());
  SelectSubmatrixInto(*this, rows, cols, out);
  return out;
}

Matrix Matrix::ConcatCols(const Matrix& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  PW_CHECK_EQ(rows_, other.rows_);
  Matrix out(rows_, cols_ + other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out(i, j) = data_[i * cols_ + j];
    for (size_t j = 0; j < other.cols_; ++j) {
      out(i, cols_ + j) = other(i, j);
    }
  }
  return out;
}

double Matrix::FrobeniusNorm() const {
  double max_abs = MaxAbs();
  if (max_abs == 0.0) return 0.0;
  double sum = 0.0;
  for (double x : data_) {
    double scaled = x / max_abs;
    sum += scaled * scaled;
  }
  return max_abs * std::sqrt(sum);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

Vector Matrix::ColMeans() const {
  PW_CHECK_GT(rows_, 0u);
  Vector means(cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) means[j] += data_[i * cols_ + j];
  }
  for (size_t j = 0; j < cols_; ++j) means[j] /= static_cast<double>(rows_);
  return means;
}

bool Matrix::AlmostEquals(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision);
  for (size_t i = 0; i < rows_; ++i) {
    os << (i == 0 ? "[[" : " [");
    for (size_t j = 0; j < cols_; ++j) {
      if (j > 0) os << ", ";
      os << data_[i * cols_ + j];
    }
    os << (i + 1 == rows_ ? "]]" : "]\n");
  }
  return os.str();
}

}  // namespace phasorwatch::linalg
