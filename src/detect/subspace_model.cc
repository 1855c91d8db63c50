#include "detect/subspace_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/status.h"
#include "linalg/svd.h"
#include "linalg/views.h"

namespace phasorwatch::detect {
namespace {

using linalg::Matrix;
using linalg::Subspace;
using linalg::Vector;

// Soft intersection of subspaces: eigenvectors of the averaged projector
// P = (1/m) sum_k B_k B_k^T with eigenvalue >= min_eigenvalue. An
// eigenvalue of 1 means the direction lies in every member subspace; a
// slightly smaller threshold tolerates the noise in data-learned bases.
//
// P = W W^T with W = [B_1 ... B_m] / sqrt(m), n by r with r the summed
// member ranks, and the spectrum comes from whichever Gram matrix is
// smaller. When r < n (large grids, docs/SPARSE.md), an eigenpair
// W^T W v = lambda v with lambda >= min_eigenvalue > 0 lifts to the
// unit eigenvector u = W v / sqrt(lambda) of P, so the solve is r by r
// instead of n by n. Both Gram matrices are symmetric PSD, so the SVD
// returns their eigenvectors in u and eigenvalues in singular_values.
Result<Subspace> SoftIntersection(const std::vector<const Subspace*>& parts,
                                  double min_eigenvalue) {
  PW_CHECK(!parts.empty());
  PW_CHECK_GT(min_eigenvalue, 0.0);
  if (parts.size() == 1) return *parts[0];
  size_t nonempty = 0;
  for (const Subspace* s : parts) nonempty += s->trivial() ? 0 : 1;
  if (nonempty == 0) return Subspace();

  Matrix w = Subspace::StackBases(parts);
  w *= 1.0 / std::sqrt(static_cast<double>(nonempty));
  const size_t n = w.rows();
  const size_t r = w.cols();
  const bool gram_side = r < n;
  PW_ASSIGN_OR_RETURN(
      linalg::SvdResult eig,
      linalg::ComputeSvd(gram_side ? w.TransposedTimes(w)
                                   : w * w.Transposed()));
  auto kept_vector = [&](size_t k) {
    if (!gram_side) return eig.u.Col(k);
    Vector u(n);
    const double inv = 1.0 / std::sqrt(eig.singular_values[k]);
    for (size_t a = 0; a < r; ++a) {
      const double va = eig.u(a, k);
      if (va == 0.0) continue;
      for (size_t i = 0; i < n; ++i) u[i] += inv * va * w(i, a);
    }
    return u;
  };
  std::vector<Vector> kept;
  for (size_t k = 0; k < eig.singular_values.size(); ++k) {
    if (eig.singular_values[k] >= min_eigenvalue) {
      kept.push_back(kept_vector(k));
    }
  }
  if (kept.empty()) {
    // Degenerate case: no direction is shared strongly enough. Fall back
    // to the single most-shared direction so downstream proximities stay
    // informative instead of collapsing to zero. Orthonormal member
    // bases give trace(P) = r / m, so the top eigenvalue is positive.
    kept.push_back(kept_vector(0));
  }
  return Subspace::FromOrthonormal(Matrix::FromColumns(kept));
}

}  // namespace

double SubspaceModel::Proximity(const linalg::Vector& x) const {
  PW_CHECK_EQ(x.size(), mean.size());
  // ||B^T z||^2: squared component of the deviation inside the
  // constraint directions, with the centering z = x - mean folded into
  // the row walk over B.
  return linalg::TransposedTimesNormSq(constraints.basis(), x, mean, {});
}

Matrix FeatureMatrix(const sim::PhasorDataSet& data) {
  const size_t n = data.num_nodes();
  const size_t t = data.num_samples();
  Matrix stacked(2 * n, t);
  for (size_t i = 0; i < n; ++i) {
    for (size_t s = 0; s < t; ++s) {
      stacked(i, s) = data.vm(i, s);
      stacked(n + i, s) = data.va(i, s);
    }
  }
  return stacked;
}

Vector FeatureVector(const Vector& vm, const Vector& va) {
  Vector out;
  FeatureVectorInto(vm, va, &out);
  return out;
}

PW_NO_ALLOC void FeatureVectorInto(const Vector& vm, const Vector& va,
                                   Vector* out) {
  out->Assign(vm.size() + va.size());
  Vector& stacked = *out;
  for (size_t i = 0; i < vm.size(); ++i) stacked[i] = vm[i];
  for (size_t i = 0; i < va.size(); ++i) stacked[vm.size() + i] = va[i];
}

Result<SubspaceModel> LearnSubspaceModel(Matrix x,
                                         const SubspaceModelOptions& options) {
  if (x.cols() < 2) {
    return Status::InvalidArgument(
        "subspace learning needs at least 2 samples");
  }
  const size_t n = x.rows();
  const size_t t = x.cols();

  // Center each node's series (rows) around its training mean.
  SubspaceModel model;
  model.mean = Vector(n);
  for (size_t i = 0; i < n; ++i) {
    double m = 0.0;
    for (size_t c = 0; c < t; ++c) m += x(i, c);
    m /= static_cast<double>(t);
    model.mean[i] = m;
    for (size_t c = 0; c < t; ++c) x(i, c) -= m;
  }

  // Left singular vectors and values of the centered data. For wide
  // data (T > N) go through the N-by-N scatter matrix X X^T, whose SVD
  // holds its eigenvectors in u and the squared singular values of X —
  // O(N^2 T + N^3) instead of Jacobi-SVD's O(N^2 T) per sweep — which
  // keeps training cheap at paper-scale sample counts.
  Matrix u;
  Vector s;
  if (t > n) {
    Matrix scatter(n, n);
    for (size_t c = 0; c < t; ++c) {
      for (size_t i = 0; i < n; ++i) {
        double xi = x(i, c);
        if (xi == 0.0) continue;
        for (size_t j = i; j < n; ++j) scatter(i, j) += xi * x(j, c);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < i; ++j) scatter(i, j) = scatter(j, i);
    }
    PW_ASSIGN_OR_RETURN(linalg::SvdResult eig, linalg::ComputeSvd(scatter));
    u = std::move(eig.u);
    s = std::move(eig.singular_values);
    for (size_t j = 0; j < n; ++j) s[j] = std::sqrt(s[j]);
  } else {
    PW_ASSIGN_OR_RETURN(linalg::SvdResult svd, linalg::ComputeSvd(x));
    u = std::move(svd.u);
    s = std::move(svd.singular_values);
  }
  model.singular_values = s;

  // Keep the left singular vectors with the smallest singular values as
  // constraint directions (Sec. IV-A / [12]).
  const size_t k_total = s.size();
  double s_max = k_total > 0 ? s[0] : 0.0;
  size_t num_constraints = 0;
  for (size_t j = 0; j < k_total; ++j) {
    if (s[j] <= options.constraint_rel_tol * s_max) {
      ++num_constraints;
    }
  }
  num_constraints = std::clamp(num_constraints, options.min_constraints,
                               std::min(options.max_constraints, k_total));

  std::vector<size_t> cols(num_constraints);
  for (size_t j = 0; j < num_constraints; ++j) {
    cols[j] = k_total - num_constraints + j;
  }
  model.constraints = Subspace::FromOrthonormal(u.SelectCols(cols));
  if (options.keep_full_basis) {
    model.full_basis = std::move(u);
  }
  return model;
}

SubspaceModel MakeWhitenedClassModel(const SubspaceModel& reference,
                                     Vector mean, size_t num_samples) {
  PW_CHECK(!reference.full_basis.empty());
  PW_CHECK_GT(num_samples, 1u);
  const Matrix& u = reference.full_basis;
  const Vector& s = reference.singular_values;
  const size_t k = s.size();
  PW_CHECK_EQ(u.cols(), k);

  // Per-direction standard deviations; ridge at the bottom quartile so
  // noise-floor directions do not dominate the distance.
  Vector sigma(k);
  double denom = std::sqrt(static_cast<double>(num_samples - 1));
  for (size_t j = 0; j < k; ++j) sigma[j] = s[j] / denom;
  double ridge = std::max(sigma[(3 * k) / 4], 1e-12);

  Matrix whitened = u;
  for (size_t j = 0; j < k; ++j) {
    double w = 1.0 / std::sqrt(sigma[j] * sigma[j] + ridge * ridge);
    for (size_t i = 0; i < whitened.rows(); ++i) whitened(i, j) *= w;
  }

  SubspaceModel model;
  model.mean = std::move(mean);
  // Deliberately a non-orthonormal coefficient matrix (see header).
  model.constraints = Subspace::FromOrthonormal(std::move(whitened));
  return model;
}

Result<NodeSubspaces> BuildNodeSubspaces(
    const std::vector<const SubspaceModel*>& line_models, double cos_tol) {
  PW_CHECK(!line_models.empty());
  const size_t n = line_models[0]->ambient_dim();

  // Shared reference mean: average of the member means.
  Vector mean(n);
  for (const SubspaceModel* m : line_models) {
    PW_CHECK_EQ(m->ambient_dim(), n);
    mean += m->mean;
  }
  mean *= 1.0 / static_cast<double>(line_models.size());

  NodeSubspaces out;
  out.union_model.mean = mean;
  out.intersection_model.mean = mean;

  std::vector<const Subspace*> bases;
  bases.reserve(line_models.size());
  for (const SubspaceModel* m : line_models) bases.push_back(&m->constraints);
  // Paper's union of outage solution sets == shared constraints.
  PW_ASSIGN_OR_RETURN(out.union_model.constraints,
                      SoftIntersection(bases, cos_tol));
  // Paper's intersection of solution sets == all constraints combined.
  out.intersection_model.constraints = Subspace::UnionAll(bases);
  return out;
}

}  // namespace phasorwatch::detect
