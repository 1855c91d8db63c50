#ifndef PHASORWATCH_LINALG_SUBSPACE_H_
#define PHASORWATCH_LINALG_SUBSPACE_H_

#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace phasorwatch::linalg {

/// A linear subspace of R^n represented by an orthonormal basis stored
/// column-wise (n-by-k matrix, k = dim). An empty basis is the trivial
/// {0} subspace.
class Subspace {
 public:
  Subspace() = default;
  /// Orthonormalizes `spanning_columns` and keeps its column space.
  explicit Subspace(const Matrix& spanning_columns);

  /// Wraps a matrix whose columns are already orthonormal (unchecked in
  /// release; verified by OrthonormalityError in tests).
  static Subspace FromOrthonormal(Matrix basis);

  size_t ambient_dim() const { return basis_.rows(); }
  size_t dim() const { return basis_.cols(); }
  bool trivial() const { return basis_.cols() == 0; }
  const Matrix& basis() const { return basis_; }

  /// Orthogonal projection of x onto the subspace.
  Vector Project(const Vector& x) const;

  /// Euclidean distance from x to the subspace: ||x - P x||_2.
  double Distance(const Vector& x) const;

  /// max_ij |(B^T B - I)_ij| — a diagnostic for tests.
  double OrthonormalityError() const;

  /// The bases of the non-trivial parts side by side (ambient_dim by
  /// the summed dims), in order; empty when every part is trivial.
  static Matrix StackBases(const std::vector<const Subspace*>& parts);
  /// Smallest subspace containing every part (sum of subspaces); the
  /// trivial subspace is the identity element.
  static Subspace UnionAll(const std::vector<const Subspace*>& parts);

  /// Cosines of the principal angles between two subspaces, descending.
  PW_NODISCARD static Result<Vector> PrincipalAngleCosines(const Subspace& a,
                                                           const Subspace& b);

 private:
  Matrix basis_;
};

}  // namespace phasorwatch::linalg

#endif  // PHASORWATCH_LINALG_SUBSPACE_H_
