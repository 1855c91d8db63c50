#ifndef PHASORWATCH_LINALG_SPARSE_H_
#define PHASORWATCH_LINALG_SPARSE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/views.h"

namespace phasorwatch::linalg {

/// Coordinate-format entry used to assemble sparse matrices.
struct Triplet {
  size_t row = 0;
  size_t col = 0;
  double value = 0.0;
};

/// Compressed-sparse-row matrix. Power-system matrices (Ybus, the DC
/// susceptance Laplacian, Jacobians) are over 95% zeros beyond ~50
/// buses; CSR keeps products and factorizations near-linear in the
/// number of branches instead of quadratic in buses.
///
/// The pattern (row_start / col_index) is immutable after assembly;
/// only the values may change, via UpdateValues / SetValue. That split
/// is what makes the sparse solvers allocation-free in steady state:
/// symbolic work (pattern construction, fill analysis, slot lookups)
/// happens once, numeric refreshes reuse the same slots every
/// iteration.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Assembles from triplets; duplicate (row, col) entries are summed
  /// (the natural idiom for stamping branch contributions). Entries
  /// whose sum is exactly zero are dropped from the pattern — use
  /// FromPattern when zero-valued slots must survive (e.g. admittance
  /// slots for out-of-service branches, which keep an outage grid's
  /// pattern, and so its sparse-LU ordering, equal to its base grid's).
  static CsrMatrix FromTriplets(size_t rows, size_t cols,
                                std::vector<Triplet> triplets);

  /// Assembles a pattern with all values zero. Duplicate (row, col)
  /// pairs collapse to a single slot; zero-valued slots are kept. This
  /// is the entry point for matrices whose pattern outlives any one
  /// set of values (incremental Ybus, per-iteration Jacobians).
  static CsrMatrix FromPattern(size_t rows, size_t cols,
                               std::vector<std::pair<size_t, size_t>> entries);

  /// Converts a dense matrix, dropping entries with |a_ij| <= tol.
  static CsrMatrix FromDense(const Matrix& dense, double tol = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t NumNonZeros() const { return values_.size(); }

  /// y = A x.
  Vector Multiply(const Vector& x) const;

  /// y = A x without allocating; y must not alias x.
  PW_NO_ALLOC void MultiplyInto(ConstVectorView x, VectorView y) const;

  /// Entry lookup (O(log nnz_row)); mainly for tests.
  double At(size_t row, size_t col) const;

  /// Slot of entry (row, col) in value order, for SetValue/ValueAt.
  /// PW_CHECK-fails when the entry is not in the pattern: slot lookups
  /// are symbolic-phase work and a miss means the pattern was built
  /// wrong, not a recoverable runtime condition.
  size_t EntrySlot(size_t row, size_t col) const;

  /// In-place refresh of every stored value. The pattern is immutable:
  /// the refresh PW_CHECKs that exactly NumNonZeros() values arrive and
  /// touches no structure arrays.
  PW_NO_ALLOC void UpdateValues(ConstVectorView values);

  /// Writes one slot (from EntrySlot); pattern untouched.
  PW_NO_ALLOC void SetValue(size_t slot, double value) {
    PW_DCHECK_LT(slot, values_.size());
    values_[slot] = value;
  }

  /// Reads one slot (from EntrySlot).
  double ValueAt(size_t slot) const {
    PW_DCHECK_LT(slot, values_.size());
    return values_[slot];
  }

  /// Dense copy (tests / small systems).
  Matrix ToDense() const;

  /// Diagonal entries as a vector (zeros where absent).
  Vector Diagonal() const;

  /// True if max |A_ij - A_ji| <= tol. Requires a square matrix.
  bool IsSymmetric(double tol = 1e-12) const;

  /// Pattern / value storage, exposed read-only for solver kernels that
  /// iterate rows directly (sparse LU scatter maps, Jacobian refresh).
  const std::vector<size_t>& RowStartArray() const { return row_start_; }
  const std::vector<size_t>& ColIndexArray() const { return col_index_; }
  const std::vector<double>& ValueArray() const { return values_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_start_;  // size rows_ + 1
  std::vector<size_t> col_index_;  // size nnz, sorted within each row
  std::vector<double> values_;     // size nnz
};

/// Sparse LU factorization with a fill-reducing ordering, split into a
/// one-time symbolic analysis and allocation-free numeric phases — the
/// sparse analogue of LuDecomposition's Factor/Refactor/SolveInto.
///
/// Analyze() orders the structurally symmetrized pattern A + A^T with
/// minimum degree (Tinney scheme 2 — the classic power-system
/// ordering) and computes the exact fill pattern of the factors by
/// symbolic elimination, allocating every array the numeric phases
/// need. Refactor() then runs a row-wise Doolittle elimination without
/// pivoting into that preallocated pattern, so refactorizing inside a
/// Newton iteration allocates nothing.
///
/// No partial pivoting is deliberate: every matrix this repo feeds the
/// solver is either symmetric positive definite (the reduced DC
/// Laplacian of the synthetic-grid builder) or strongly diagonally
/// dominant in practice (polar power-flow Jacobians of transmission
/// grids), where static ordering is numerically safe. A pivot whose
/// magnitude falls below pivot_tol fails the refactorization with
/// kSingular instead of dividing by noise, exactly like the dense
/// LuDecomposition.
///
/// SolveInto uses internal scratch, so a single instance is not safe
/// to share across threads; callers keep per-thread instances (the
/// same discipline LuDecomposition users follow).
class SparseLu {
 public:
  SparseLu() = default;

  /// Symbolic analysis of the pattern of `a`: ordering + fill. Values
  /// of `a` are ignored; call Refactor to load numbers. Fails with
  /// kInvalidArgument on non-square or empty input.
  PW_NODISCARD static Result<SparseLu> Analyze(const CsrMatrix& a);

  /// Analyze + Refactor in one step for one-shot factorizations.
  PW_NODISCARD static Result<SparseLu> Factor(const CsrMatrix& a,
                                              double pivot_tol = 1e-13);

  /// Numeric refactorization. `a` must have the same pattern that was
  /// analyzed (enforced cheaply via shape and nnz; the slot-level
  /// pattern match is the caller's contract — reuse the same CsrMatrix
  /// and refresh its values in place). Fails with kSingular when a
  /// pivot magnitude drops below pivot_tol.
  PW_NO_ALLOC PW_NODISCARD Status Refactor(const CsrMatrix& a,
                                           double pivot_tol = 1e-13);

  /// Solves A x = b using the current factors. x may alias b.
  PW_NO_ALLOC PW_NODISCARD Status SolveInto(ConstVectorView b,
                                            VectorView x) const;

  /// Allocating convenience wrapper around SolveInto.
  PW_NODISCARD Result<Vector> Solve(const Vector& b) const;

  size_t size() const { return n_; }

  /// Total stored entries in L (strict lower) plus U (upper incl.
  /// diagonal). The fill-reduction win over dense is n^2 vs this.
  size_t FactorNonZeros() const { return l_col_.size() + u_col_.size(); }

 private:
  size_t n_ = 0;
  size_t a_nnz_ = 0;  // nnz of the analyzed matrix, for Refactor checks
  bool factored_ = false;

  std::vector<size_t> perm_;      // elimination order: perm_[i] = old index
  std::vector<size_t> inv_perm_;  // old -> permuted

  // Unit-lower factor L by permuted row: columns k < i, ascending.
  std::vector<size_t> l_start_, l_col_;
  std::vector<double> l_val_;
  // Upper factor U by permuted row: diagonal first, then columns > i
  // ascending.
  std::vector<size_t> u_start_, u_col_;
  std::vector<double> u_val_;

  // Scatter map: for each permuted row, the (value slot in A, permuted
  // column) pairs of A's entries landing in that row.
  std::vector<size_t> a_map_start_, a_map_slot_, a_map_col_;

  // Numeric scratch (permuted-index workspaces). Mutable so SolveInto
  // can stay const like LuDecomposition::SolveInto.
  std::vector<double> work_;
  mutable std::vector<double> y_;
};

}  // namespace phasorwatch::linalg

#endif  // PHASORWATCH_LINALG_SPARSE_H_
