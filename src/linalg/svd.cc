#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/status.h"
#include "linalg/views.h"

namespace phasorwatch::linalg {
namespace {

// One-sided Jacobi on a tall matrix held by columns: row j of `at` is
// column j of the m x n (m >= n) working matrix, and row j of `vt` is
// column j of V. Orthogonalizes pairs of those columns in place while
// accumulating the rotations into `vt`, so every Gram dot and every
// rotation walks two contiguous rows. Returns true on convergence
// within `max_sweeps`.
bool JacobiSweeps(Matrix& at, Matrix& vt, int max_sweeps, double tol) {
  const size_t n = at.rows();
  const size_t m = at.cols();
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (size_t p = 0; p + 1 < n; ++p) {
      double* ap = at.data() + p * m;
      double* vp = vt.data() + p * n;
      for (size_t q = p + 1; q < n; ++q) {
        double* aq = at.data() + q * m;
        double* vq = vt.data() + q * n;
        // Gram entries for the (p, q) column pair.
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (size_t i = 0; i < m; ++i) {
          app += ap[i] * ap[i];
          aqq += aq[i] * aq[i];
          apq += ap[i] * aq[i];
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
          const double x = ap[i];
          const double y = aq[i];
          ap[i] = c * x - s * y;
          aq[i] = s * x + c * y;
        }
        for (size_t i = 0; i < n; ++i) {
          const double x = vp[i];
          const double y = vq[i];
          vp[i] = c * x - s * y;
          vq[i] = s * x + c * y;
        }
      }
    }
    if (!rotated) return true;
  }
  return false;
}

// Called once the sweeps have run out. A rank-deficient input leaves
// columns of the working matrix at roundoff level, and when such a
// column lies in the span of the others (a symmetric PSD input with a
// repeated row, say) each rotation against them only re-creates
// roundoff, so the sweeps never settle. A column whose norm is below
// `tol` times the largest carries no direction: if every pair that
// still fails the orthogonality test involves one, those columns are
// zeroed (singular value 0, U completed) and the sweeps count as
// converged. Any other failing pair, or a non-finite column, is a
// genuine failure. Inputs on which the sweeps converge never get here,
// so their output bits do not depend on this step.
bool DropNegligibleColumns(Matrix& at, double tol) {
  const size_t n = at.rows();
  const size_t m = at.cols();
  // Plain sums, as in the sweeps: a NaN entry must reach the norm.
  auto dot = [&](size_t p, size_t q) {
    const double* ap = at.data() + p * m;
    const double* aq = at.data() + q * m;
    double sum = 0.0;
    for (size_t i = 0; i < m; ++i) sum += ap[i] * aq[i];
    return sum;
  };
  std::vector<double> norm(n);
  double max_norm = 0.0;
  for (size_t j = 0; j < n; ++j) {
    norm[j] = std::sqrt(dot(j, j));
    if (!std::isfinite(norm[j])) return false;
    max_norm = std::max(max_norm, norm[j]);
  }
  const double floor = tol * max_norm;
  for (size_t p = 0; p + 1 < n; ++p) {
    if (norm[p] <= floor) continue;
    for (size_t q = p + 1; q < n; ++q) {
      if (norm[q] <= floor) continue;
      if (std::fabs(dot(p, q)) > tol * norm[p] * norm[q]) return false;
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (norm[j] > floor) continue;
    std::fill(at.data() + j * m, at.data() + (j + 1) * m, 0.0);
  }
  return true;
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
  // A non-finite entry makes the sweeps fail, but only once they run
  // out, and a single column has no pair to rotate, so they never read
  // it (Norm skips NaN). Reject it up front with the same code.
  if (!std::all_of(a.data(), a.data() + a.rows() * a.cols(),
                   [](double x) { return std::isfinite(x); })) {
    return Status::NotConverged("Jacobi SVD of a non-finite matrix");
  }
  // One-sided Jacobi wants a tall matrix; transpose and swap factors
  // when the input is wide. The tall matrix is kept by columns, so a
  // wide input already is its own working copy.
  const bool transposed = a.rows() < a.cols();
  Matrix work = transposed ? a : a.Transposed();
  const size_t n = work.rows();
  const size_t m = work.cols();

  Matrix vt = Matrix::Identity(n);
  if (!JacobiSweeps(work, vt, max_sweeps, tol) &&
      !DropNegligibleColumns(work, tol)) {
    return Status::NotConverged("Jacobi SVD did not converge");
  }

  // Column norms are the singular values; sort descending.
  std::vector<double> sigma(n);
  for (size_t j = 0; j < n; ++j) {
    sigma[j] = Norm(ConstVectorView(work.data() + j * m, m));
  }
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
    const double* vj = vt.data() + j * n;
    for (size_t i = 0; i < n; ++i) out.v(i, idx) = vj[i];
    if (sigma[j] > 0.0) {
      const double* col = work.data() + j * m;
      const double inv = 1.0 / sigma[j];
      for (size_t i = 0; i < m; ++i) out.u(i, idx) = col[i] * inv;
      positive = idx + 1;
    }
  }
  if (positive < n) {
    // Complete U's trailing columns: find unit vectors orthogonal to the
    // existing columns via Gram-Schmidt over the standard basis.
    size_t next_axis = 0;
    Vector cand(m);
    for (size_t idx = positive; idx < n && next_axis < m; ++idx) {
      double norm = 0.0;
      while (next_axis < m) {
        cand.Assign(m);
        cand[next_axis++] = 1.0;
        for (int pass = 0; pass < 2; ++pass) {
          for (size_t k = 0; k < idx; ++k) {
            double dot = 0.0;
            for (size_t i = 0; i < m; ++i) dot += cand[i] * out.u(i, k);
            for (size_t i = 0; i < m; ++i) cand[i] -= dot * out.u(i, k);
          }
        }
        norm = cand.Norm();
        if (norm > 1e-8) break;
      }
      if (norm > 1e-8) {
        const double inv = 1.0 / norm;
        for (size_t i = 0; i < m; ++i) out.u(i, idx) = cand[i] * inv;
      }
    }
  }

  if (transposed) std::swap(out.u, out.v);
  return out;
}

}  // namespace phasorwatch::linalg
