#include "linalg/qr.h"

#include <algorithm>
#include <vector>

namespace phasorwatch::linalg {

Matrix OrthonormalBasis(const Matrix& a, double tol) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  if (m == 0 || n == 0) return Matrix();

  // Modified Gram-Schmidt with re-orthogonalization and column pivoting
  // by residual norm: greedily pick the column with the largest residual.
  std::vector<Vector> basis;
  std::vector<Vector> residual(n);
  for (size_t j = 0; j < n; ++j) residual[j] = a.Col(j);

  double max_norm0 = 0.0;
  for (const auto& c : residual) max_norm0 = std::max(max_norm0, c.Norm());
  if (max_norm0 == 0.0) return Matrix();
  const double threshold = tol * max_norm0;

  std::vector<bool> used(n, false);
  for (size_t step = 0; step < std::min(m, n); ++step) {
    size_t best = n;
    double best_norm = threshold;
    for (size_t j = 0; j < n; ++j) {
      if (used[j]) continue;
      double norm = residual[j].Norm();
      if (norm > best_norm) {
        best_norm = norm;
        best = j;
      }
    }
    if (best == n) break;  // all remaining columns are in the span
    used[best] = true;
    Vector q = residual[best];
    // Re-orthogonalize against the accepted basis (twice is enough).
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& e : basis) {
        double dot = q.Dot(e);
        for (size_t i = 0; i < m; ++i) q[i] -= dot * e[i];
      }
    }
    double norm = q.Norm();
    if (norm <= threshold) continue;
    q *= 1.0 / norm;
    basis.push_back(q);
    // Deflate all unused residuals by the new direction.
    for (size_t j = 0; j < n; ++j) {
      if (used[j]) continue;
      double dot = residual[j].Dot(q);
      for (size_t i = 0; i < m; ++i) residual[j][i] -= dot * q[i];
    }
  }
  return Matrix::FromColumns(basis);
}

}  // namespace phasorwatch::linalg
