#ifndef PHASORWATCH_DETECT_PROXIMITY_H_
#define PHASORWATCH_DETECT_PROXIMITY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/sync.h"
#include "detect/subspace_model.h"
#include "linalg/matrix.h"
#include "sim/missing_data.h"

namespace phasorwatch::detect {

/// Evaluates sample-to-subspace proximities through a detection group,
/// tolerating missing measurements (Eq. 9).
///
/// For a model with constraint basis B (ambient N, dim k) and mean mu,
/// a complete sample x has proximity ||B^T (x - mu)||^2. When only the
/// detection-group coordinates D are trusted, split C = B^T by columns
/// into C_D and C_M (M = complement). The best consistent completion of
/// the hidden part minimizes ||C_D z_D + C_M z_M||, giving the residual
///   prox = || (I - C_M C_M^+) C_D z_D ||^2,
/// i.e. a regressor built from a pseudo-inverse of a row-partition of
/// the subspace matrix, as in Eq. 9 / [12]. The projector is cached per
/// (model, D) pair: detection groups repeat heavily across samples.
///
/// Thread safety: Evaluate() may be called concurrently from any number
/// of threads (the cache is guarded by a shared mutex; entries are
/// immutable once built, and two threads racing to build the same key
/// compute bit-identical regressors). ClearCache() must not run
/// concurrently with Evaluate().
class ProximityEngine {
 public:
  ProximityEngine() = default;

  /// Movable so the owning detector stays movable; the mutex itself is
  /// not moved (each engine keeps its own). Moving while other threads
  /// use either engine is a bug, as with any container — which is why
  /// the lock is deliberately not taken here and the thread-safety
  /// analysis is waived.
  // Move is documented single-threaded; locking would promise a safety
  // this operation cannot provide.
  ProximityEngine(ProximityEngine&& other) noexcept
      PW_NO_THREAD_SAFETY_ANALYSIS : cache_(std::move(other.cache_)) {}
  // Move is documented single-threaded (see move constructor).
  ProximityEngine& operator=(ProximityEngine&& other) noexcept
      PW_NO_THREAD_SAFETY_ANALYSIS {
    if (this != &other) cache_ = std::move(other.cache_);
    return *this;
  }

  /// Proximity of the sample to `model` using only coordinates in
  /// `group` (must be non-empty and contain no missing nodes).
  /// `model_key` identifies the model for caching (stable unique id).
  /// A group covering every coordinate is the complete-data case and
  /// reduces to SubspaceModel::Proximity. Allocation-free once the
  /// (model, group) regressor is cached; the cold build path lives in
  /// BuildRegressor.
  PW_NO_ALLOC PW_NODISCARD Result<double> Evaluate(
      const SubspaceModel& model, uint64_t model_key,
      const linalg::Vector& sample, const std::vector<size_t>& group);

  size_t cache_size() const {
    ReaderLock lock(mu_);
    return cache_.size();
  }
  void ClearCache() {
    WriterLock lock(mu_);
    cache_.clear();
  }

 private:
  struct CachedRegressor {
    // R^T with R = (I - C_M C_M^+) C_D, shaped |D| x k: stored
    // transposed so applying it walks contiguous rows, one per group
    // coordinate (linalg::TransposedTimesNormSq).
    linalg::Matrix r_t;
    std::vector<size_t> group;
  };

  /// Cold path of Evaluate: builds the Eq. 9 missing-data regressor for
  /// a (model, group) pair. Runs once per pair; every later Evaluate
  /// applies the cached result allocation-free.
  PW_NODISCARD static Result<std::shared_ptr<const CachedRegressor>>
  BuildRegressor(const SubspaceModel& model, const std::vector<size_t>& group);

  mutable SharedMutex mu_{lock_rank::kProximityCache};
  /// Values are shared_ptr so an Evaluate() can keep applying a
  /// regressor lock-free while other threads insert new entries.
  std::unordered_map<uint64_t, std::shared_ptr<const CachedRegressor>> cache_
      PW_GUARDED_BY(mu_);
};

/// Stable hash key combining a model id and a detection-group member
/// set (order-insensitive within sorted groups).
uint64_t GroupCacheKey(uint64_t model_key, const std::vector<size_t>& group);

}  // namespace phasorwatch::detect

#endif  // PHASORWATCH_DETECT_PROXIMITY_H_
