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

Result<std::shared_ptr<const ProximityEngine::CachedRegressor>>
ProximityEngine::BuildRegressor(const SubspaceModel& model,
                                const std::vector<size_t>& group) {
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
  linalg::Matrix r_t;
  if (hidden.empty()) {
    r_t = c_d.Transposed();
  } else {
    PW_ASSIGN_OR_RETURN(linalg::Matrix c_m_pinv, linalg::PseudoInverse(c_m));
    linalg::Matrix projected = c_m * (c_m_pinv * c_d);
    const linalg::Matrix regressor = c_d - projected;
    // R^T takes the storage of the k x |D| projection temporary (same
    // element count, so Assign reuses it) instead of a fresh copy.
    projected.Assign(group.size(), k);
    linalg::TransposeInto(regressor, projected);
    r_t = std::move(projected);
  }
  return std::make_shared<const CachedRegressor>(
      CachedRegressor{std::move(r_t), group});
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

  uint64_t key = GroupCacheKey(model_key, group);
  std::shared_ptr<const CachedRegressor> cached;
  {
    ReaderLock lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second->group == group) {
      cached = it->second;
    }
  }
  if (cached == nullptr) {
    // Double-checked upgrade, audited: the shared lock above is fully
    // released before the cold build (std::shared_mutex is not
    // upgradable, and holding readers through a multi-millisecond SVD
    // would stall every other evaluator). The build therefore races
    // with identical builds on other threads by design; the re-check
    // under the writer lock below resolves the race.
    //
    // Cache miss: the cold build path runs once per (model, group)
    // pair, outside this function's no-alloc contract.
    PW_ASSIGN_OR_RETURN(cached, BuildRegressor(model, group));
    size_t cache_size;
    {
      WriterLock lock(mu_);
      // Re-check: another thread may have built the same key between
      // the reader unlock and here. Both regressors are bit-identical
      // (same deterministic inputs), so either copy serves — keep the
      // incumbent and let this thread's copy die. A differing stored
      // group means a genuine hash collision — the newcomer wins, as
      // before.
      auto [it, inserted] = cache_.try_emplace(key, cached);
      if (!inserted && it->second->group != group) it->second = cached;
      cache_size = cache_.size();
    }
    PW_OBS_GAUGE_SET("proximity.cache_size", cache_size);
  } else {
    PW_OBS_COUNTER_INC("proximity.cache_hits");
  }

  // Residual: || R (x_D - mu_D) ||^2 — one Eq. 9 regressor application
  // (the missing-data path proper), walking the stored R^T by rows with
  // the centering gathered through the group. Allocation-free once the
  // per-thread arena is warm.
  PW_OBS_COUNTER_INC("proximity.regressor_applications");
  return linalg::TransposedTimesNormSq(cached->r_t, sample, model.mean,
                                       cached->group);
}

}  // namespace phasorwatch::detect
