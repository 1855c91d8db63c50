#ifndef PHASORWATCH_LINALG_SVD_H_
#define PHASORWATCH_LINALG_SVD_H_

#include "common/check.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace phasorwatch::linalg {

/// Thin singular value decomposition A = U diag(s) V^T.
///
/// For an m-by-n input with k = min(m, n): `u` is m-by-k with orthonormal
/// columns, `singular_values` holds s_1 >= s_2 >= ... >= s_k >= 0, and
/// `v` is n-by-k with orthonormal columns.
struct SvdResult {
  Matrix u;
  Vector singular_values;
  Matrix v;

  /// Numerical rank: number of singular values > tol * s_1.
  size_t Rank(double tol = 1e-10) const;

  /// Reconstructs U diag(s) V^T (for testing).
  Matrix Reconstruct() const;
};

/// Computes the thin SVD using one-sided Jacobi rotations. Chosen over
/// Golub-Kahan bidiagonalization for its simplicity and high relative
/// accuracy on small singular values — exactly the part of the spectrum
/// the outage subspaces are built from. O(m n^2) per sweep; matrices in
/// this library are at most a few hundred columns.
///
/// It is also the library's symmetric eigensolver: for a symmetric
/// positive semidefinite input A, `u` holds orthonormal eigenvectors and
/// `singular_values` the eigenvalues (descending), so A = U diag(s) U^T.
/// Training uses it that way on scatter and Gram matrices.
///
/// Fails with NotConverged on an input holding a NaN or infinity, and
/// when the sweeps do not settle within `max_sweeps`.
PW_NODISCARD Result<SvdResult> ComputeSvd(const Matrix& a, int max_sweeps = 60,
                                          double tol = 1e-12);

}  // namespace phasorwatch::linalg

#endif  // PHASORWATCH_LINALG_SVD_H_
