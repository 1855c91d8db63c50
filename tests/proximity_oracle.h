#ifndef PHASORWATCH_TESTS_PROXIMITY_ORACLE_H_
#define PHASORWATCH_TESTS_PROXIMITY_ORACLE_H_

// Test-only oracle for ProximityEngine: Eq. 9's regressor in its
// textbook form R = C_D - C_M (C_M^+ C_D), with C = B^T split into the
// group's columns C_D and the hidden ones C_M and C_M^+ the Moore-Penrose
// pseudo-inverse. The engine caches a smaller factor of the same R
// (docs/MATH.md §4); tests compare its residuals, shift energies and
// peel drops against these at a pinned relative tolerance.

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "detect/proximity.h"
#include "detect/subspace_model.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"

namespace phasorwatch::detect::oracle {

// Relative tolerance of every oracle comparison: the same bound as
// ClassFamilyParityTest::kResidualRelTol.
inline constexpr double kRelTol = 1e-10;

/// Moore-Penrose pseudo-inverse via the SVD: V diag(1/s) U^T over the
/// singular values above rcond * s_max.
inline Result<linalg::Matrix> PseudoInverse(const linalg::Matrix& a,
                                            double rcond = 1e-10) {
  PW_ASSIGN_OR_RETURN(linalg::SvdResult svd, linalg::ComputeSvd(a));
  const size_t k = svd.singular_values.size();
  const double cutoff = rcond * (k > 0 ? svd.singular_values[0] : 0.0);
  linalg::Matrix vs = svd.v;  // n-by-k
  for (size_t j = 0; j < k; ++j) {
    const double s = svd.singular_values[j];
    const double inv = s > cutoff ? 1.0 / s : 0.0;
    for (size_t i = 0; i < vs.rows(); ++i) vs(i, j) *= inv;
  }
  return vs * svd.u.Transposed();
}

/// R = C_D - C_M (C_M^+ C_D), k x |D|, for `model`'s basis over `group`.
inline linalg::Matrix Regressor(const SubspaceModel& model,
                                const std::vector<size_t>& group) {
  const linalg::Matrix& b = model.constraints.basis();
  const size_t n = b.rows();
  const size_t k = b.cols();
  std::vector<bool> in_group(n, false);
  for (size_t idx : group) in_group[idx] = true;
  std::vector<size_t> hidden;
  for (size_t i = 0; i < n; ++i) {
    if (!in_group[i]) hidden.push_back(i);
  }
  linalg::Matrix c_d(k, group.size());
  for (size_t c = 0; c < group.size(); ++c) {
    for (size_t r = 0; r < k; ++r) c_d(r, c) = b(group[c], r);
  }
  if (hidden.empty()) return c_d;
  linalg::Matrix c_m(k, hidden.size());
  for (size_t c = 0; c < hidden.size(); ++c) {
    for (size_t r = 0; r < k; ++r) c_m(r, c) = b(hidden[c], r);
  }
  auto c_m_pinv = PseudoInverse(c_m);
  PW_CHECK(c_m_pinv.ok());
  return c_d - (c_m * (*c_m_pinv * c_d));
}

/// ||R (x_D - mean_D)||^2 for a regressor from Regressor().
inline double Residual(const linalg::Matrix& regressor,
                       const linalg::Vector& x, const linalg::Vector& mean,
                       const std::vector<size_t>& group) {
  double sum = 0.0;
  for (size_t r = 0; r < regressor.rows(); ++r) {
    double dot = 0.0;
    for (size_t c = 0; c < group.size(); ++c) {
      dot += regressor(r, c) * (x[group[c]] - mean[group[c]]);
    }
    sum += dot * dot;
  }
  return sum;
}

/// The proximity of `x` to `model` over `group`.
inline double Proximity(const SubspaceModel& model, const linalg::Vector& x,
                        const std::vector<size_t>& group) {
  return Residual(Regressor(model, group), x, model.mean, group);
}

/// Every member's residual against a class family, from one regressor:
/// what ProximityEngine::EvaluateFamily returns, computed per member.
struct FamilyResult {
  double normal = 0.0;
  std::vector<double> cases;
  /// e_c = ||R d_c||^2.
  std::vector<double> energies;
  /// (r_0 - r_c) / e_c.
  std::vector<double> drops;
};

inline FamilyResult Family(const ClassFamily& family, const linalg::Vector& x,
                           const std::vector<size_t>& group) {
  const linalg::Matrix regressor = Regressor(family.base(), group);
  const linalg::Vector& mu = family.base().mean;
  FamilyResult out;
  out.normal = Residual(regressor, x, mu, group);
  for (size_t c = 0; c < family.num_cases(); ++c) {
    const double r = Residual(regressor, x, family.case_mean(c), group);
    const double e = Residual(regressor, family.case_mean(c), mu, group);
    out.cases.push_back(r);
    out.energies.push_back(e);
    out.drops.push_back((out.normal - r) / std::max(e, 1e-15));
  }
  return out;
}

}  // namespace phasorwatch::detect::oracle

#endif  // PHASORWATCH_TESTS_PROXIMITY_ORACLE_H_
