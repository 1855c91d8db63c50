#include "detect/proximity.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/status.h"
#include "common/sync.h"
#include "linalg/svd.h"
#include "linalg/views.h"
#include "obs/metrics.h"

namespace phasorwatch::detect {

uint64_t GroupCacheKey(uint64_t model_key, const std::vector<size_t>& group) {
  // FNV-1a over the member indices, mixed with the model key.
  uint64_t h = 1469598103934665603ull ^ model_key;
  for (size_t idx : group) {
    h ^= static_cast<uint64_t>(idx) + 0x9E3779B97F4A7C15ull;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// Floor on a shift energy in the peel drop's denominator, matching the
// detector's floor on every other proximity ratio: a shift invisible
// over the coordinates gets a finite (huge) drop, never a NaN.
constexpr double kEnergyFloor = 1e-15;

// The rank cut on range(C_M): singular values of C_M above this share
// of the largest span it (the pseudo-inverse's rcond).
constexpr double kRankCut = 1e-10;

// A basis counts as orthonormal when every entry of B^T B is within
// this of the identity's. The trained node subspaces sit at 1e-14 to
// 1e-12; the whitened class basis is off by orders of magnitude.
constexpr double kOrthonormalTol = 1e-11;

// The identity gather of the complete-data family path.
const std::vector<size_t> kNoGather;

// C_X = B_X^T, k x |X|: the basis rows of the coordinates X as columns.
linalg::Matrix GatherColumns(const linalg::Matrix& b,
                             const std::vector<size_t>& coords) {
  linalg::Matrix out(b.cols(), coords.size());
  for (size_t c = 0; c < coords.size(); ++c) {
    const double* row = linalg::ConstMatrixView(b).row(coords[c]);
    for (size_t r = 0; r < b.cols(); ++r) out(r, c) = row[r];
  }
  return out;
}

// max |B^T B - I| <= kOrthonormalTol, from one walk over the rows of B
// accumulating the upper triangle of the Gram matrix.
bool HasOrthonormalColumns(const linalg::Matrix& b) {
  const size_t k = b.cols();
  linalg::Matrix gram(k, k);
  const linalg::ConstMatrixView bv(b);
  const linalg::MutableMatrixView gv(gram);
  for (size_t i = 0; i < b.rows(); ++i) {
    const double* row = bv.row(i);
    for (size_t p = 0; p < k; ++p) {
      double* g = gv.row(p);
      for (size_t q = p; q < k; ++q) g[q] += row[p] * row[q];
    }
  }
  for (size_t p = 0; p < k; ++p) {
    for (size_t q = p; q < k; ++q) {
      const double expected = p == q ? 1.0 : 0.0;
      if (std::fabs(gram(p, q) - expected) > kOrthonormalTol) return false;
    }
  }
  return true;
}

// Q, an orthonormal basis of range(c_m), as the first rows of `storage`
// (k columns): the left singular vectors of c_m whose singular value
// passes the rank cut. Returns the rank r.
Result<size_t> RangeBasisInto(const linalg::Matrix& c_m,
                              linalg::Matrix* storage, size_t extra_rows) {
  const size_t k = c_m.rows();
  if (c_m.empty()) {
    *storage = linalg::Matrix(extra_rows, k);
    return size_t{0};
  }
  PW_ASSIGN_OR_RETURN(linalg::SvdResult svd, linalg::ComputeSvd(c_m));
  const size_t r = svd.Rank(kRankCut);
  *storage = linalg::Matrix(r + extra_rows, k);
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < k; ++j) (*storage)(i, j) = svd.u(j, i);
  }
  return r;
}

// R^T for an orthonormal basis, from the visible side. Then
// C_D C_D^T + C_M C_M^T = I_k, so C_M C_M^T shares C_D's left singular
// vectors u_i, with eigenvalue tau_i^2 = 1 - sigma_i^2, and P keeps
// exactly the u_i whose tau_i falls under the rank cut:
// R = sum over those of sigma_i u_i v_i^T. tau_i is taken as
// ||C_M^T u_i|| rather than from 1 - sigma_i^2, which cancels.
Status RegressorFromVisibleSide(const linalg::Matrix& b,
                                const std::vector<size_t>& group,
                                const linalg::Matrix& c_m,
                                linalg::MutableMatrixView r_t) {
  const size_t k = b.cols();
  r_t.Fill(0.0);
  if (k == 0) return Status::OK();
  PW_ASSIGN_OR_RETURN(linalg::SvdResult svd,
                      linalg::ComputeSvd(GatherColumns(b, group)));
  const size_t m = svd.singular_values.size();
  linalg::Matrix tau_dirs(c_m.cols(), m);  // C_M^T U
  linalg::TransposedTimesInto(c_m, svd.u, tau_dirs);
  linalg::Vector tau(m);
  // Directions of R^k outside range(C_D) lie wholly in range(C_M).
  double tau_max = k > m ? 1.0 : 0.0;
  for (size_t i = 0; i < m; ++i) {
    double s = 0.0;
    for (size_t h = 0; h < c_m.cols(); ++h) {
      s += tau_dirs(h, i) * tau_dirs(h, i);
    }
    tau[i] = std::sqrt(s);
    tau_max = std::max(tau_max, tau[i]);
  }
  for (size_t i = 0; i < m; ++i) {
    if (tau[i] > kRankCut * tau_max) continue;
    for (size_t d = 0; d < group.size(); ++d) {
      const double coeff = svd.singular_values[i] * svd.v(d, i);
      double* row = r_t.row(d);
      for (size_t j = 0; j < k; ++j) row[j] += coeff * svd.u(j, i);
    }
  }
  return Status::OK();
}

// R^T for any basis, from Q: row d of R^T = C_D^T P is P applied to
// basis row group[d].
Status RegressorFromHiddenBasis(const linalg::Matrix& b,
                                const std::vector<size_t>& group,
                                const linalg::Matrix& c_m,
                                linalg::MutableMatrixView r_t) {
  linalg::Matrix q;
  PW_ASSIGN_OR_RETURN(size_t r, RangeBasisInto(c_m, &q, 0));
  linalg::Vector coeffs(r);
  for (size_t d = 0; d < group.size(); ++d) {
    const linalg::VectorView row(r_t.row(d), b.cols());
    for (size_t j = 0; j < b.cols(); ++j) row[j] = b(group[d], j);
    // Twice, so the rows leave range(C_M) to rounding of their own norm
    // (EvaluateFamily pairs R z with unprojected shifts, MATH.md §4).
    linalg::ProjectOffRowSpanInto(q, row, coeffs);
    linalg::ProjectOffRowSpanInto(q, row, coeffs);
  }
  return Status::OK();
}

// Scratch doubles for applying a projector entry: a fixed stack block,
// or a heap buffer for an entry wider than any detection group builds
// (ProximityEngine::kStackDoubles).
class EntryScratch {
 public:
  explicit EntryScratch(size_t size) {
    if (size > ProximityEngine::kStackDoubles) {
      wide_.Assign(size);
      data_ = wide_.data();
    }
  }
  EntryScratch(const EntryScratch&) = delete;
  EntryScratch& operator=(const EntryScratch&) = delete;

  linalg::VectorView span(size_t offset, size_t size) {
    return linalg::VectorView(data_ + offset, size);
  }

 private:
  double block_[ProximityEngine::kStackDoubles];
  linalg::Vector wide_;
  double* data_ = block_;
};

// sum_j y_j^2 over j ascending: the residual of a walk's y.
double SumOfSquares(linalg::ConstVectorView y) {
  double sum = 0.0;
  for (size_t j = 0; j < y.size(); ++j) sum += y[j] * y[j];
  return sum;
}

}  // namespace

ClassFamily::ClassFamily(SubspaceModel base,
                         std::vector<linalg::Vector> case_means)
    : base_(std::move(base)), case_means_(std::move(case_means)) {
  const size_t dim = base_.ambient_dim();
  const linalg::Matrix& b = base_.constraints.basis();
  const size_t k = b.cols();
  // The cache keeps a family's shift energies in rows of k doubles.
  PW_CHECK(case_means_.empty() || k > 0);
  const size_t num_cases = case_means_.size();
  shifts_ = linalg::Matrix(dim, num_cases);
  shift_projections_ = linalg::Matrix(k, num_cases);
  complete_energies_ = linalg::Vector(num_cases);
  linalg::Vector t(k);
  for (size_t c = 0; c < num_cases; ++c) {
    PW_CHECK_EQ(case_means_[c].size(), dim);
    for (size_t i = 0; i < dim; ++i) {
      shifts_(i, c) = case_means_[c][i] - base_.mean[i];
    }
    // T_c = B^T (mu_c - mu_n), the complete-data walk of the case mean,
    // so ||T_c||^2 summed in order is the base's own proximity at it.
    linalg::TransposedTimesCenteredInto(b, case_means_[c], base_.mean,
                                        kNoGather, t);
    double e = 0.0;
    for (size_t j = 0; j < k; ++j) {
      shift_projections_(j, c) = t[j];
      e += t[j] * t[j];
    }
    complete_energies_[c] = e;
  }
}

Result<std::shared_ptr<const ProximityEngine::CachedRegressor>>
ProximityEngine::BuildRegressor(const SubspaceModel& model,
                                uint64_t model_key,
                                const std::vector<size_t>& group,
                                const ClassFamily* family,
                                std::optional<bool>* orthonormal) {
  PW_OBS_COUNTER_INC("proximity.regressor_builds");
  const size_t n = model.ambient_dim();
  const linalg::Matrix& b = model.constraints.basis();  // n x k
  const size_t k = b.cols();

  std::vector<bool> in_group(n, false);
  for (size_t idx : group) {
    PW_CHECK_LT(idx, n);
    in_group[idx] = true;
  }
  std::vector<size_t> hidden;
  hidden.reserve(n - group.size());
  for (size_t i = 0; i < n; ++i) {
    if (!in_group[i]) hidden.push_back(i);
  }

  auto entry = std::make_shared<CachedRegressor>();
  entry->group = group;
  entry->model_key = model_key;
  entry->num_energies = family == nullptr ? 0 : family->num_cases();
  // A class-family entry gets ceil(C / k) rows for its shift energies
  // after the factor (CachedRegressor).
  const size_t energy_rows = k == 0 ? 0 : (entry->num_energies + k - 1) / k;
  PW_CHECK(entry->num_energies == 0 || energy_rows > 0);
  const linalg::Matrix c_m = GatherColumns(b, hidden);
  // A tie keeps R^T: Q would hold as many rows (r <= |M| = |D|) and
  // cost two more walks of k per application.
  entry->projector = hidden.size() < group.size();
  if (entry->projector) {
    // The hidden block is the smaller side: keep Q itself.
    PW_ASSIGN_OR_RETURN(entry->factor_rows,
                        RangeBasisInto(c_m, &entry->storage, energy_rows));
  } else {
    entry->factor_rows = group.size();
    entry->storage = linalg::Matrix(group.size() + energy_rows, k);
    const linalg::MutableMatrixView r_t =
        linalg::MutableMatrixView(entry->storage).Block(0, 0, group.size(), k);
    if (!orthonormal->has_value()) *orthonormal = HasOrthonormalColumns(b);
    PW_RETURN_IF_ERROR(orthonormal->value()
                           ? RegressorFromVisibleSide(b, group, c_m, r_t)
                           : RegressorFromHiddenBasis(b, group, c_m, r_t));
  }
  // The shift energies e_c = ||R d_c||^2 over the group. A projector
  // entry projects T_c (R d_c = P T_c); a regressor entry walks its
  // R^T once per case mean.
  if (entry->num_energies > 0) {
    const linalg::VectorView energies(
        linalg::MutableMatrixView(entry->storage).row(entry->factor_rows),
        entry->num_energies);
    const linalg::ConstMatrixView factor = entry->factor();
    linalg::Vector work(k);
    linalg::Vector coeffs(entry->factor_rows);
    for (size_t c = 0; c < entry->num_energies; ++c) {
      if (!entry->projector) {
        energies[c] = linalg::TransposedTimesNormSq(
            factor, family->case_mean(c), family->base().mean, group);
        continue;
      }
      for (size_t j = 0; j < k; ++j) {
        work[j] = family->shift_projections()(j, c);
      }
      linalg::ProjectOffRowSpanInto(factor, work, coeffs);
      double e = 0.0;
      for (size_t j = 0; j < k; ++j) e += work[j] * work[j];
      energies[c] = e;
    }
  }
  return std::shared_ptr<const CachedRegressor>(std::move(entry));
}

std::vector<ProximityEngine::CachedKey> ProximityEngine::CachedKeys() const {
  ReaderLock lock(mu_);
  std::vector<CachedKey> keys;
  keys.reserve(cache_.size());
  for (const auto& [key, entry] : cache_) {
    keys.push_back({entry->model_key, entry->group, entry->num_energies > 0});
  }
  return keys;
}

Result<std::shared_ptr<const ProximityEngine::CachedRegressor>>
ProximityEngine::FindOrBuild(const SubspaceModel& model, uint64_t model_key,
                             const std::vector<size_t>& group,
                             const ClassFamily* family) {
  const size_t num_energies = family == nullptr ? 0 : family->num_cases();
  // A usable entry is this group's, with the family's energies if a
  // family asks (an entry built by Evaluate under the same key has none).
  auto usable = [&](const CachedRegressor& entry) {
    return entry.group == group &&
           (family == nullptr || entry.num_energies == num_energies);
  };
  uint64_t key = GroupCacheKey(model_key, group);
  auto lookup = [&]() -> std::shared_ptr<const CachedRegressor> {
    ReaderLock lock(mu_);
    auto it = cache_.find(key);
    if (it == cache_.end() || !usable(*it->second)) return nullptr;
    return it->second;
  };
  std::shared_ptr<const CachedRegressor> cached = lookup();
  if (cached != nullptr) {
    PW_OBS_COUNTER_INC("proximity.cache_hits");
    return cached;
  }
  // Cache miss: the cold build path runs once per (model, group) pair,
  // outside the callers' no-alloc contract. Builds are single-flight:
  // a thread that misses a key another thread is building waits for
  // that build instead of repeating it (the reader lock above is never
  // held through a build's SVD, and std::shared_mutex is not
  // upgradable). A waiter that cannot use the finished entry — a
  // genuine hash collision, a family caller finding an entry without
  // energies, or a failed build — builds the key itself.
  std::optional<bool> orthonormal;
  {
    MutexLock lock(build_mu_);
    for (;;) {
      cached = lookup();
      if (cached != nullptr) {
        PW_OBS_COUNTER_INC("proximity.cache_hits");
        return cached;
      }
      if (std::find(building_.begin(), building_.end(), key) ==
          building_.end()) {
        break;
      }
      build_done_.Wait(build_mu_);
    }
    building_.push_back(key);
    auto known = orthonormal_.find(model_key);
    if (known != orthonormal_.end()) orthonormal = known->second;
  }
  Result<std::shared_ptr<const CachedRegressor>> built =
      BuildRegressor(model, model_key, group, family, &orthonormal);
  size_t cache_size = 0;
  size_t cache_bytes = 0;
  if (built.ok()) {
    cached = std::move(built).value();
    WriterLock lock(mu_);
    // An incumbent under this key is one this caller could not use, so
    // the newcomer replaces it.
    std::shared_ptr<const CachedRegressor>& slot = cache_[key];
    if (slot != nullptr) cache_bytes_ -= slot->bytes();
    slot = cached;
    cache_bytes_ += cached->bytes();
    cache_size = cache_.size();
    cache_bytes = cache_bytes_;
  }
  {
    MutexLock lock(build_mu_);
    building_.erase(std::find(building_.begin(), building_.end(), key));
    if (orthonormal.has_value()) orthonormal_.emplace(model_key, *orthonormal);
  }
  build_done_.NotifyAll();
  if (!built.ok()) return built.status();
  PW_OBS_GAUGE_SET("proximity.cache_size", cache_size);
  PW_OBS_GAUGE_SET("proximity.cache_bytes", cache_bytes);
  return cached;
}

PW_NO_ALLOC void ProximityEngine::ApplyEntry(const CachedRegressor& entry,
                                             const linalg::Matrix& b,
                                             const linalg::Vector& x,
                                             const linalg::Vector& mean,
                                             linalg::VectorView y,
                                             linalg::VectorView hidden) {
  if (!entry.projector) {
    linalg::TransposedTimesCenteredInto(entry.factor(), x, mean, entry.group,
                                        y);
    return;
  }
  // y = C_D z_D, then y -= Q^T (Q y).
  linalg::GatheredTransposedTimesCenteredInto(b, x, mean, entry.group, y);
  linalg::ProjectOffRowSpanInto(entry.factor(), y, hidden);
}

PW_NO_ALLOC Result<double> ProximityEngine::Evaluate(
    const SubspaceModel& model, uint64_t model_key,
    const linalg::Vector& sample, const std::vector<size_t>& group) {
  const size_t n = model.ambient_dim();
  PW_OBS_COUNTER_INC("proximity.evaluations");
  if (sample.size() != n) {
    return Status::InvalidArgument("sample dimension mismatch");
  }
  if (group.empty()) {
    return Status::DataMissing("empty detection group");
  }
  if (group.size() == n) {
    // Complete data: plain projection, no Eq. 9 regressor needed.
    PW_OBS_COUNTER_INC("proximity.complete_evaluations");
    return model.Proximity(sample);
  }
  PW_ASSIGN_OR_RETURN(std::shared_ptr<const CachedRegressor> cached,
                      FindOrBuild(model, model_key, group, nullptr));

  // Residual: || R (x_D - mu_D) ||^2 — one Eq. 9 regressor application
  // (the missing-data path proper). A regressor entry walks its R^T by
  // rows in blocks of columns, needing no y; a projector entry builds
  // y = P C_D z in a stack block.
  PW_OBS_COUNTER_INC("proximity.regressor_applications");
  if (!cached->projector) {
    return linalg::TransposedTimesNormSq(cached->factor(), sample, model.mean,
                                         cached->group);
  }
  const size_t k = model.constraints.basis().cols();
  const size_t r = cached->factor_rows;
  EntryScratch scratch(k + r);
  const linalg::VectorView y = scratch.span(0, k);
  ApplyEntry(*cached, model.constraints.basis(), sample, model.mean, y,
             scratch.span(k, r));
  return SumOfSquares(y);
}

PW_NO_ALLOC Status ProximityEngine::EvaluateFamily(
    const ClassFamily& family, uint64_t family_key,
    const linalg::Vector& sample, const std::vector<size_t>& group,
    FamilyResiduals* out) {
  const SubspaceModel& base = family.base();
  const linalg::Matrix& b = base.constraints.basis();
  const size_t n = base.ambient_dim();
  PW_OBS_COUNTER_INC("proximity.evaluations");
  if (sample.size() != n) {
    return Status::InvalidArgument("sample dimension mismatch");
  }
  if (group.empty()) {
    return Status::DataMissing("empty detection group");
  }
  const size_t k = b.cols();
  const size_t num_cases = family.num_cases();
  out->y.Assign(k);
  out->cases.Assign(num_cases);
  out->drops.Assign(num_cases);
  linalg::Vector& y = out->y;
  // Complete data walks the shared basis B itself (no cache entry, the
  // family's own energies); otherwise the cached entry and its
  // energies.
  linalg::ConstVectorView energies = family.complete_energies();
  double r0 = 0.0;
  if (group.size() == n) {
    PW_OBS_COUNTER_INC("proximity.complete_evaluations");
    linalg::TransposedTimesCenteredInto(b, sample, base.mean, kNoGather, y);
    r0 = SumOfSquares(y);
  } else {
    PW_ASSIGN_OR_RETURN(std::shared_ptr<const CachedRegressor> cached,
                        FindOrBuild(base, family_key, group, &family));
    PW_OBS_COUNTER_INC("proximity.regressor_applications");
    energies = cached->energies();
    const size_t r = cached->projector ? cached->factor_rows : 0;
    EntryScratch scratch(r);
    ApplyEntry(*cached, b, sample, base.mean, y, scratch.span(0, r));
    r0 = SumOfSquares(y);
    // g below pairs y with T_c, whose hidden part P removes. A second
    // projection cuts what one pass leaves of y in range(C_M) from
    // rounding of ||C_D z|| to rounding of ||y|| (docs/MATH.md §4);
    // r0 keeps the one-pass y, the walk Evaluate reads.
    if (cached->projector) {
      linalg::ProjectOffRowSpanInto(cached->factor(), y, scratch.span(0, r));
    }
  }

  // g = T y into `drops` (R d_c = P T_c and P y = y, so
  // g_c = (R d_c) . y = T_c . y); each g_c then becomes case c's
  // residual and drop in place.
  linalg::TransposedMatVecInto(family.shift_projections(), y, out->drops);
  out->normal = r0;
  for (size_t c = 0; c < num_cases; ++c) {
    const double g = out->drops[c];
    const double e = energies[c];
    // ||y - R d_c||^2 expanded; the clamp absorbs the cancellation
    // rounding when the sample sits on case c's mean (docs/MATH.md §4).
    out->cases[c] = std::max(0.0, r0 - 2.0 * g + e);
    out->drops[c] = (2.0 * g - e) / std::max(e, kEnergyFloor);
  }
  return Status::OK();
}

}  // namespace phasorwatch::detect
