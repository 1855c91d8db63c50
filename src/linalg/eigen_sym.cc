#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/status.h"

namespace phasorwatch::linalg {

Result<SymmetricEigenResult> ComputeSymmetricEigen(const Matrix& a,
                                                   int max_sweeps,
                                                   double symmetry_tol) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("eigendecomposition requires square input");
  }
  const size_t n = a.rows();
  const double scale = std::max(a.MaxAbs(), 1e-300);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (std::fabs(a(i, j) - a(j, i)) > symmetry_tol * scale) {
        return Status::InvalidArgument("matrix is not symmetric");
      }
    }
  }

  Matrix d = a;
  // V is kept transposed: row p of `vt` is eigenvector column p, so the
  // rotation updates two contiguous rows of it, as it does of D.
  Matrix vt = Matrix::Identity(n);
  bool converged = false;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    double off = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) off += d(i, j) * d(i, j);
    }
    if (std::sqrt(off) <= 1e-14 * scale * static_cast<double>(n)) {
      converged = true;
      break;
    }
    for (size_t p = 0; p + 1 < n; ++p) {
      double* dp = d.data() + p * n;
      double* vp = vt.data() + p * n;
      for (size_t q = p + 1; q < n; ++q) {
        double* dq = d.data() + q * n;
        double* vq = vt.data() + q * n;
        double apq = dp[q];
        if (std::fabs(apq) <= 1e-300) continue;
        double theta = (dq[q] - dp[p]) / (2.0 * apq);
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::fabs(theta) + std::sqrt(1.0 + theta * theta));
        double c = 1.0 / std::sqrt(1.0 + t * t);
        double s = c * t;
        // Apply the rotation J(p, q, theta) on both sides of D: columns
        // p and q first, then rows p and q.
        for (size_t k = 0; k < n; ++k) {
          double dkp = d(k, p);
          double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double x = dp[k];
          const double y = dq[k];
          dp[k] = c * x - s * y;
          dq[k] = s * x + c * y;
        }
        for (size_t k = 0; k < n; ++k) {
          const double x = vp[k];
          const double y = vq[k];
          vp[k] = c * x - s * y;
          vq[k] = s * x + c * y;
        }
      }
    }
  }
  if (!converged) {
    // One more off-diagonal check: Jacobi converges quadratically, so a
    // residual at this point is a genuine failure.
    double off = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) off += d(i, j) * d(i, j);
    }
    if (std::sqrt(off) > 1e-9 * scale * static_cast<double>(n)) {
      return Status::NotConverged("Jacobi eigensolver did not converge");
    }
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return d(x, x) > d(y, y); });

  SymmetricEigenResult out;
  out.eigenvalues = Vector(n);
  out.eigenvectors = Matrix(n, n);
  for (size_t idx = 0; idx < n; ++idx) {
    out.eigenvalues[idx] = d(order[idx], order[idx]);
    const double* v = vt.data() + order[idx] * n;
    for (size_t k = 0; k < n; ++k) out.eigenvectors(k, idx) = v[k];
  }
  return out;
}

}  // namespace phasorwatch::linalg
