#include "linalg/subspace.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/status.h"
#include "linalg/qr.h"
#include "linalg/svd.h"

namespace phasorwatch::linalg {

Subspace::Subspace(const Matrix& spanning_columns)
    : basis_(OrthonormalBasis(spanning_columns)) {}

Subspace Subspace::FromOrthonormal(Matrix basis) {
  Subspace s;
  s.basis_ = std::move(basis);
  return s;
}

Vector Subspace::Project(const Vector& x) const {
  PW_CHECK_EQ(x.size(), ambient_dim());
  Vector out(x.size());
  // P x = B (B^T x); never materialize the n-by-n projector.
  for (size_t j = 0; j < dim(); ++j) {
    double coeff = 0.0;
    for (size_t i = 0; i < x.size(); ++i) coeff += basis_(i, j) * x[i];
    for (size_t i = 0; i < x.size(); ++i) out[i] += coeff * basis_(i, j);
  }
  return out;
}

double Subspace::Distance(const Vector& x) const {
  Vector p = Project(x);
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double d = x[i] - p[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double Subspace::OrthonormalityError() const {
  double err = 0.0;
  for (size_t i = 0; i < dim(); ++i) {
    for (size_t j = 0; j < dim(); ++j) {
      double dot = 0.0;
      for (size_t r = 0; r < ambient_dim(); ++r) {
        dot += basis_(r, i) * basis_(r, j);
      }
      double expected = (i == j) ? 1.0 : 0.0;
      err = std::max(err, std::fabs(dot - expected));
    }
  }
  return err;
}

Matrix Subspace::StackBases(const std::vector<const Subspace*>& parts) {
  size_t rows = 0;
  size_t cols = 0;
  for (const Subspace* s : parts) {
    if (s->trivial()) continue;
    PW_CHECK(cols == 0 || s->ambient_dim() == rows);
    rows = s->ambient_dim();
    cols += s->dim();
  }
  Matrix stacked(rows, cols);
  size_t offset = 0;
  for (const Subspace* s : parts) {
    if (s->trivial()) continue;
    const Matrix& b = s->basis();
    for (size_t i = 0; i < rows; ++i) {
      const double* src = b.data() + i * b.cols();
      std::copy(src, src + b.cols(), stacked.data() + i * cols + offset);
    }
    offset += b.cols();
  }
  return stacked;
}

Subspace Subspace::UnionAll(const std::vector<const Subspace*>& parts) {
  Matrix stacked = StackBases(parts);
  if (stacked.empty()) return Subspace();
  return Subspace(stacked);
}

Result<Vector> Subspace::PrincipalAngleCosines(const Subspace& a,
                                               const Subspace& b) {
  if (a.trivial() || b.trivial()) {
    return Status::InvalidArgument(
        "principal angles undefined for the trivial subspace");
  }
  if (a.ambient_dim() != b.ambient_dim()) {
    return Status::InvalidArgument("ambient dimension mismatch");
  }
  Matrix cross = a.basis_.TransposedTimes(b.basis_);
  PW_ASSIGN_OR_RETURN(SvdResult svd, ComputeSvd(cross));
  // Clamp to [0, 1]: rounding can push cosines epsilon above 1.
  Vector cosines = svd.singular_values;
  for (size_t i = 0; i < cosines.size(); ++i) {
    cosines[i] = std::min(1.0, std::max(0.0, cosines[i]));
  }
  return cosines;
}

}  // namespace phasorwatch::linalg
