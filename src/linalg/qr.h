#ifndef PHASORWATCH_LINALG_QR_H_
#define PHASORWATCH_LINALG_QR_H_

#include "linalg/matrix.h"

namespace phasorwatch::linalg {

/// Orthonormal basis of the column space of `a`: columns of the result
/// span range(a); rank is decided by |R_ii| > tol * max|R|.
/// Rank-revealing via column-pivoted Gram-Schmidt (numerically adequate
/// at this problem scale, and keeps basis vectors aligned with input
/// columns which the subspace code relies on).
Matrix OrthonormalBasis(const Matrix& a, double tol = 1e-10);

}  // namespace phasorwatch::linalg

#endif  // PHASORWATCH_LINALG_QR_H_
