#include "detect/proximity.h"

#include <algorithm>

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

// The identity gather of the complete-data family path.
const std::vector<size_t> kNoGather;

}  // namespace

ClassFamily::ClassFamily(SubspaceModel base,
                         std::vector<linalg::Vector> case_means)
    : base_(std::move(base)), case_means_(std::move(case_means)) {
  const size_t dim = base_.ambient_dim();
  // The cache keeps a family's shift energies in rows of k doubles.
  PW_CHECK(case_means_.empty() || base_.constraints.basis().cols() > 0);
  shifts_ = linalg::Matrix(dim, case_means_.size());
  for (size_t c = 0; c < case_means_.size(); ++c) {
    PW_CHECK_EQ(case_means_[c].size(), dim);
    for (size_t i = 0; i < dim; ++i) {
      shifts_(i, c) = case_means_[c][i] - base_.mean[i];
    }
  }
  complete_energies_ = linalg::Vector(case_means_.size());
  for (size_t c = 0; c < case_means_.size(); ++c) {
    // ||B^T (mu_c - mu_n)||^2: the base's own proximity at the case mean.
    complete_energies_[c] = base_.Proximity(case_means_[c]);
  }
}

Result<std::shared_ptr<const ProximityEngine::CachedRegressor>>
ProximityEngine::BuildRegressor(const SubspaceModel& model,
                                const std::vector<size_t>& group,
                                const ClassFamily* family) {
  PW_OBS_COUNTER_INC("proximity.regressor_builds");
  // Build the regressor R = (I - C_M C_M^+) C_D, with C = B^T.
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

  // C_D: k x |D| (rows of B for D, transposed); C_M likewise.
  linalg::Matrix c_d(k, group.size());
  for (size_t c = 0; c < group.size(); ++c) {
    for (size_t r = 0; r < k; ++r) c_d(r, c) = b(group[c], r);
  }
  linalg::Matrix c_m(k, hidden.size());
  for (size_t c = 0; c < hidden.size(); ++c) {
    for (size_t r = 0; r < k; ++r) c_m(r, c) = b(hidden[c], r);
  }

  // R^T, |D| x k: Evaluate walks it by rows, one per group coordinate.
  // A class-family entry gets ceil(C / k) more rows for its shift
  // energies (CachedRegressor).
  const size_t num_energies = family == nullptr ? 0 : family->num_cases();
  const size_t energy_rows = k == 0 ? 0 : (num_energies + k - 1) / k;
  PW_CHECK(num_energies == 0 || energy_rows > 0);
  const size_t stored_rows = group.size() + energy_rows;
  linalg::Matrix storage;
  if (hidden.empty()) {
    storage = linalg::Matrix(stored_rows, k);
    linalg::TransposeInto(
        c_d, linalg::MutableMatrixView(storage).Block(0, 0, group.size(), k));
  } else {
    PW_ASSIGN_OR_RETURN(linalg::Matrix c_m_pinv, linalg::PseudoInverse(c_m));
    const linalg::Matrix inner = c_m_pinv * c_d;
    // The k x |D| projection temporary is allocated with room for the
    // whole entry, because the entry then takes its storage (Assign
    // keeps the capacity) instead of a fresh copy: a build makes the
    // same heap allocations with or without energy rows.
    linalg::Matrix projected(stored_rows, k);
    projected.Assign(k, group.size());
    linalg::MultiplyInto(c_m, inner, projected);
    const linalg::Matrix regressor = c_d - projected;
    projected.Assign(stored_rows, k);
    linalg::TransposeInto(
        regressor,
        linalg::MutableMatrixView(projected).Block(0, 0, group.size(), k));
    storage = std::move(projected);
  }
  // The shift energies e_c = ||R d_c||^2 over the group: the base
  // model's residual at each case mean, one walk of R^T per case (the
  // k x C product R [d_1 ... d_C], column by column). The product
  // itself is not kept: at k x C doubles per entry it would outweigh
  // the C energies many times over.
  if (num_energies > 0) {
    const linalg::ConstMatrixView r_t =
        linalg::ConstMatrixView(storage).Block(0, 0, group.size(), k);
    const linalg::VectorView energies(
        linalg::MutableMatrixView(storage).row(group.size()), num_energies);
    for (size_t c = 0; c < num_energies; ++c) {
      energies[c] = linalg::TransposedTimesNormSq(
          r_t, family->case_mean(c), family->base().mean, group);
    }
  }
  return std::make_shared<const CachedRegressor>(
      CachedRegressor{std::move(storage), group, num_energies});
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
  // held through a multi-millisecond SVD, and std::shared_mutex is not
  // upgradable). A waiter that cannot use the finished entry — a
  // genuine hash collision, a family caller finding an entry without
  // energies, or a failed build — builds the key itself.
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
  }
  Result<std::shared_ptr<const CachedRegressor>> built =
      BuildRegressor(model, group, family);
  size_t cache_size = 0;
  if (built.ok()) {
    cached = std::move(built).value();
    WriterLock lock(mu_);
    // An incumbent under this key is one this caller could not use, so
    // the newcomer replaces it.
    cache_[key] = cached;
    cache_size = cache_.size();
  }
  {
    MutexLock lock(build_mu_);
    building_.erase(std::find(building_.begin(), building_.end(), key));
  }
  build_done_.NotifyAll();
  if (!built.ok()) return built.status();
  PW_OBS_GAUGE_SET("proximity.cache_size", cache_size);
  return cached;
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
  // (the missing-data path proper), walking the stored R^T by rows with
  // the centering gathered through the group.
  PW_OBS_COUNTER_INC("proximity.regressor_applications");
  return linalg::TransposedTimesNormSq(cached->r_t(), sample, model.mean,
                                       cached->group);
}

PW_NO_ALLOC Status ProximityEngine::EvaluateFamily(
    const ClassFamily& family, uint64_t family_key,
    const linalg::Vector& sample, const std::vector<size_t>& group,
    FamilyResiduals* out) {
  const SubspaceModel& base = family.base();
  const size_t n = base.ambient_dim();
  PW_OBS_COUNTER_INC("proximity.evaluations");
  if (sample.size() != n) {
    return Status::InvalidArgument("sample dimension mismatch");
  }
  if (group.empty()) {
    return Status::DataMissing("empty detection group");
  }
  // Complete data walks the shared basis B itself (no cache entry, the
  // family's own energies); otherwise the cached R^T and its energies.
  linalg::ConstMatrixView a = base.constraints.basis();
  linalg::ConstVectorView energies = family.complete_energies();
  std::shared_ptr<const CachedRegressor> cached;
  const std::vector<size_t>* gather = &group;
  if (group.size() == n) {
    PW_OBS_COUNTER_INC("proximity.complete_evaluations");
    gather = &kNoGather;
  } else {
    PW_ASSIGN_OR_RETURN(cached, FindOrBuild(base, family_key, group, &family));
    a = cached->r_t();
    energies = cached->energies();
    PW_OBS_COUNTER_INC("proximity.regressor_applications");
  }

  const size_t k = a.cols();
  const size_t num_cases = family.num_cases();
  out->y.Assign(k);
  out->cases.Assign(num_cases);
  out->drops.Assign(num_cases);
  // y = R z, then g = D^T (R^T y) into `drops` in a second walk over
  // the same rows of the stored R^T; each g_c then becomes case c's
  // residual and drop in place.
  linalg::Vector& y = out->y;
  linalg::TransposedTimesCenteredInto(a, sample, base.mean, *gather, y);
  linalg::GatherTransposedTimesMatVecInto(a, y, family.shifts(), *gather,
                                          out->drops);
  double r0 = 0.0;
  for (size_t j = 0; j < k; ++j) r0 += y[j] * y[j];
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
