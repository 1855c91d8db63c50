#include "detect/subspace_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/status.h"
#include "linalg/eigen_sym.h"
#include "linalg/svd.h"
#include "linalg/views.h"

namespace phasorwatch::detect {
namespace {

using linalg::Matrix;
using linalg::Subspace;
using linalg::Vector;

// Soft intersection of subspaces: eigenvectors of the averaged projector
// (1/m) sum_k B_k B_k^T with eigenvalue >= min_eigenvalue. An eigenvalue
// of 1 means the direction lies in every member subspace; a slightly
// smaller threshold tolerates the noise in data-learned bases.
Subspace SoftIntersection(const std::vector<const Subspace*>& parts,
                          double min_eigenvalue) {
  PW_CHECK(!parts.empty());
  if (parts.size() == 1) return *parts[0];
  const size_t n = parts[0]->ambient_dim();
  Matrix avg(n, n);
  size_t nonempty = 0;
  for (const Subspace* s : parts) {
    if (s->trivial()) continue;
    PW_CHECK_EQ(s->ambient_dim(), n);
    ++nonempty;
    const Matrix& b = s->basis();
    // avg += B B^T
    for (size_t k = 0; k < b.cols(); ++k) {
      for (size_t i = 0; i < n; ++i) {
        double bi = b(i, k);
        if (bi == 0.0) continue;
        for (size_t j = 0; j < n; ++j) avg(i, j) += bi * b(j, k);
      }
    }
  }
  if (nonempty == 0) return Subspace();
  avg *= 1.0 / static_cast<double>(nonempty);

  auto eig = linalg::ComputeSymmetricEigen(avg);
  if (!eig.ok()) return Subspace();
  std::vector<Vector> kept;
  for (size_t k = 0; k < eig->eigenvalues.size(); ++k) {
    if (eig->eigenvalues[k] >= min_eigenvalue) {
      kept.push_back(eig->eigenvectors.Col(k));
    }
  }
  if (kept.empty()) {
    // Degenerate case: no direction is shared strongly enough. Fall back
    // to the single most-shared direction so downstream proximities stay
    // informative instead of collapsing to zero.
    kept.push_back(eig->eigenvectors.Col(0));
  }
  return Subspace::FromOrthonormal(Matrix::FromColumns(kept));
}

// The same averaged-projector spectrum through its Gram matrix, for
// large ambient dimensions (docs/SPARSE.md): avg = W W^T with
// W = [B_1 ... B_m] / sqrt(m), so every eigenvalue >= min_eigenvalue
// (> 0) lives in span(W) and comes from the r-by-r Gram matrix
// G = W^T W, where r = sum of member ranks << n. An eigenpair
// G v = lambda v lifts to the unit eigenvector u = W v / sqrt(lambda)
// of avg, turning the O(n^3) Jacobi sweep into O(n r^2). The kept
// subspace equals the dense path's up to roundoff — not bit-identical,
// which is why small grids stay on the dense path.
Subspace SoftIntersectionLowRank(const std::vector<const Subspace*>& parts,
                                 double min_eigenvalue) {
  PW_CHECK(!parts.empty());
  PW_CHECK_GT(min_eigenvalue, 0.0);
  if (parts.size() == 1) return *parts[0];
  const size_t n = parts[0]->ambient_dim();
  size_t nonempty = 0;
  size_t r = 0;
  for (const Subspace* s : parts) {
    if (s->trivial()) continue;
    PW_CHECK_EQ(s->ambient_dim(), n);
    ++nonempty;
    r += s->dim();
  }
  if (nonempty == 0) return Subspace();

  Matrix w(n, r);
  const double scale = 1.0 / std::sqrt(static_cast<double>(nonempty));
  size_t col = 0;
  for (const Subspace* s : parts) {
    if (s->trivial()) continue;
    const Matrix& b = s->basis();
    for (size_t k = 0; k < b.cols(); ++k, ++col) {
      for (size_t i = 0; i < n; ++i) w(i, col) = scale * b(i, k);
    }
  }

  Matrix gram(r, r);
  for (size_t a = 0; a < r; ++a) {
    for (size_t c = a; c < r; ++c) {
      double dot = 0.0;
      for (size_t i = 0; i < n; ++i) dot += w(i, a) * w(i, c);
      gram(a, c) = dot;
      gram(c, a) = dot;
    }
  }

  auto eig = linalg::ComputeSymmetricEigen(gram);
  if (!eig.ok()) return Subspace();
  auto lift = [&](size_t k) {
    Vector u(n);
    const double inv = 1.0 / std::sqrt(eig->eigenvalues[k]);
    for (size_t a = 0; a < r; ++a) {
      double va = eig->eigenvectors(a, k);
      if (va == 0.0) continue;
      for (size_t i = 0; i < n; ++i) u[i] += inv * va * w(i, a);
    }
    return u;
  };
  std::vector<Vector> kept;
  for (size_t k = 0; k < eig->eigenvalues.size(); ++k) {
    if (eig->eigenvalues[k] >= min_eigenvalue) kept.push_back(lift(k));
  }
  if (kept.empty()) {
    // Same degenerate fallback as the dense path: the single
    // most-shared direction. Orthonormal member bases give
    // trace(G) = r / m, so the top eigenvalue is strictly positive.
    kept.push_back(lift(0));
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

Matrix FeatureMatrix(const sim::PhasorDataSet& data, PhasorChannel channel) {
  switch (channel) {
    case PhasorChannel::kMagnitude:
      return data.vm;
    case PhasorChannel::kAngle:
      return data.va;
    case PhasorChannel::kBoth: {
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
  }
  return data.va;
}

Vector FeatureVector(const Vector& vm, const Vector& va,
                     PhasorChannel channel) {
  Vector out;
  FeatureVectorInto(vm, va, channel, &out);
  return out;
}

PW_NO_ALLOC void FeatureVectorInto(const Vector& vm, const Vector& va,
                                   PhasorChannel channel, Vector* out) {
  switch (channel) {
    case PhasorChannel::kMagnitude:
      *out = vm;
      return;
    case PhasorChannel::kAngle:
      *out = va;
      return;
    case PhasorChannel::kBoth: {
      out->Assign(vm.size() + va.size());
      Vector& stacked = *out;
      for (size_t i = 0; i < vm.size(); ++i) stacked[i] = vm[i];
      for (size_t i = 0; i < va.size(); ++i) stacked[vm.size() + i] = va[i];
      return;
    }
  }
  *out = va;
}

Result<SubspaceModel> LearnSubspaceModel(const sim::PhasorDataSet& data,
                                         const SubspaceModelOptions& options) {
  Matrix x = FeatureMatrix(data, options.channel);
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
  // data (T > N) go through the N-by-N scatter matrix and a symmetric
  // eigensolve — O(N^2 T + N^3) instead of Jacobi-SVD's O(N^2 T) per
  // sweep — which keeps training cheap at paper-scale sample counts.
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
    PW_ASSIGN_OR_RETURN(linalg::SymmetricEigenResult eig,
                        linalg::ComputeSymmetricEigen(scatter));
    u = std::move(eig.eigenvectors);
    s = Vector(n);
    for (size_t j = 0; j < n; ++j) {
      s[j] = std::sqrt(std::max(eig.eigenvalues[j], 0.0));
    }
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

NodeSubspaces BuildNodeSubspaces(
    const std::vector<const SubspaceModel*>& line_models, double cos_tol,
    bool lowrank_composition) {
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

  // Paper's union of outage solution sets == shared constraints.
  std::vector<const Subspace*> bases;
  bases.reserve(line_models.size());
  for (const SubspaceModel* m : line_models) bases.push_back(&m->constraints);
  out.union_model.constraints = lowrank_composition
                                    ? SoftIntersectionLowRank(bases, cos_tol)
                                    : SoftIntersection(bases, cos_tol);

  // Paper's intersection of solution sets == all constraints combined.
  std::vector<Subspace> all;
  all.reserve(line_models.size());
  for (const SubspaceModel* m : line_models) all.push_back(m->constraints);
  out.intersection_model.constraints = Subspace::UnionAll(all);
  return out;
}

}  // namespace phasorwatch::detect
