#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/status.h"

namespace phasorwatch::linalg {
namespace {

// One-sided Jacobi on a tall (m >= n) matrix. Orthogonalizes pairs of
// columns of `a` in place while accumulating the rotations into `v`.
// Returns true on convergence within `max_sweeps`.
bool JacobiSweeps(Matrix& a, Matrix& v, int max_sweeps, double tol) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        // Gram entries for the (p, q) column pair.
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (size_t i = 0; i < m; ++i) {
          double ap = a(i, p);
          double aq = a(i, q);
          app += ap * ap;
          aqq += aq * aq;
          apq += ap * aq;
        }
        if (std::fabs(apq) <= tol * std::sqrt(app * aqq)) continue;
        rotated = true;
        // Jacobi rotation that zeroes the Gram off-diagonal.
        double tau = (aqq - app) / (2.0 * apq);
        double t = (tau >= 0 ? 1.0 : -1.0) /
                   (std::fabs(tau) + std::sqrt(1.0 + tau * tau));
        double c = 1.0 / std::sqrt(1.0 + t * t);
        double s = c * t;
        for (size_t i = 0; i < m; ++i) {
          double ap = a(i, p);
          double aq = a(i, q);
          a(i, p) = c * ap - s * aq;
          a(i, q) = s * ap + c * aq;
        }
        for (size_t i = 0; i < n; ++i) {
          double vp = v(i, p);
          double vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (!rotated) return true;
  }
  return false;
}

}  // namespace

size_t SvdResult::Rank(double tol) const {
  if (singular_values.empty()) return 0;
  double cutoff = tol * singular_values[0];
  size_t rank = 0;
  for (size_t i = 0; i < singular_values.size(); ++i) {
    if (singular_values[i] > cutoff) ++rank;
  }
  return rank;
}

Matrix SvdResult::Reconstruct() const {
  Matrix us = u;
  for (size_t j = 0; j < singular_values.size(); ++j) {
    for (size_t i = 0; i < us.rows(); ++i) us(i, j) *= singular_values[j];
  }
  return us * v.Transposed();
}

Result<SvdResult> ComputeSvd(const Matrix& a, int max_sweeps, double tol) {
  if (a.empty()) {
    return Status::InvalidArgument("SVD of an empty matrix");
  }
  // One-sided Jacobi wants a tall matrix; transpose and swap factors
  // when the input is wide.
  const bool transposed = a.rows() < a.cols();
  Matrix work = transposed ? a.Transposed() : a;
  const size_t m = work.rows();
  const size_t n = work.cols();

  Matrix v = Matrix::Identity(n);
  if (!JacobiSweeps(work, v, max_sweeps, tol)) {
    return Status::NotConverged("Jacobi SVD did not converge");
  }

  // Column norms are the singular values; sort descending.
  std::vector<double> sigma(n);
  for (size_t j = 0; j < n; ++j) sigma[j] = work.Col(j).Norm();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return sigma[x] > sigma[y]; });

  SvdResult out;
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  out.singular_values = Vector(n);
  // For (near-)zero singular values the U column direction is arbitrary;
  // fill with an orthonormal completion so U keeps orthonormal columns.
  size_t positive = 0;
  for (size_t idx = 0; idx < n; ++idx) {
    size_t j = order[idx];
    out.singular_values[idx] = sigma[j];
    out.v.SetCol(idx, v.Col(j));
    if (sigma[j] > 0.0) {
      Vector col = work.Col(j);
      col *= 1.0 / sigma[j];
      out.u.SetCol(idx, col);
      positive = idx + 1;
    }
  }
  if (positive < n) {
    // Complete U's trailing columns: find unit vectors orthogonal to the
    // existing columns via Gram-Schmidt over the standard basis.
    size_t next_axis = 0;
    for (size_t idx = positive; idx < n && next_axis < m; ++idx) {
      Vector cand;
      double norm = 0.0;
      while (next_axis < m) {
        cand = Vector(m);
        cand[next_axis++] = 1.0;
        for (int pass = 0; pass < 2; ++pass) {
          for (size_t k = 0; k < idx; ++k) {
            Vector uk = out.u.Col(k);
            double dot = cand.Dot(uk);
            for (size_t i = 0; i < m; ++i) cand[i] -= dot * uk[i];
          }
        }
        norm = cand.Norm();
        if (norm > 1e-8) break;
      }
      if (norm > 1e-8) {
        cand *= 1.0 / norm;
        out.u.SetCol(idx, cand);
      }
    }
  }

  if (transposed) std::swap(out.u, out.v);
  return out;
}

}  // namespace phasorwatch::linalg
