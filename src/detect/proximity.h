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
#include "linalg/views.h"
#include "sim/missing_data.h"

namespace phasorwatch::detect {

/// A family of class models that share one coefficient matrix and
/// differ only in their means (docs/MATH.md §4): the whitened normal
/// class model, which is the family's base, and C line cases with mean
/// shifts d_c = mu_c - mu_n. Built once per trained detector from the
/// class means; ProximityEngine::EvaluateFamily scores a sample against
/// every member from one regressor application.
class ClassFamily {
 public:
  ClassFamily() = default;
  /// `base` carries the shared coefficient matrix and the normal mean;
  /// `case_means` holds the C case means (each of the base's dimension).
  ClassFamily(SubspaceModel base, std::vector<linalg::Vector> case_means);

  const SubspaceModel& base() const { return base_; }
  size_t num_cases() const { return case_means_.size(); }
  const linalg::Vector& case_mean(size_t c) const { return case_means_[c]; }
  /// The shifts d_c, dim x C row-major: row i holds coordinate i of
  /// every shift, so walking a coordinate set streams one row each.
  const linalg::Matrix& shifts() const { return shifts_; }
  /// e_c = ||B^T d_c||^2 over every coordinate. Masked coordinate sets
  /// keep theirs in the regressor cache entry; complete data has no
  /// cache entry, so its energies live here.
  const linalg::Vector& complete_energies() const {
    return complete_energies_;
  }

 private:
  SubspaceModel base_;
  std::vector<linalg::Vector> case_means_;
  linalg::Matrix shifts_;
  linalg::Vector complete_energies_;
};

/// Residuals of one sample against every member of a ClassFamily over
/// one coordinate set (ProximityEngine::EvaluateFamily). Caller-owned,
/// so a reused instance keeps its capacity across samples.
struct FamilyResiduals {
  /// y = R z over the coordinate set (k doubles): the evaluation's own
  /// scratch, kept here so a reused instance needs no allocation.
  linalg::Vector y;
  /// r_0 = ||y||^2, the base (normal) member's residual.
  double normal = 0.0;
  /// r_c = max(0, r_0 - 2 g_c + e_c), case c's residual.
  linalg::Vector cases;
  /// (2 g_c - e_c) / e_c = (r_0 - r_c) / e_c before the clamp: the
  /// normalized residual drop of peeling case c's shift (docs/MATH.md
  /// §5).
  linalg::Vector drops;
};

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
/// Thread safety: Evaluate() and EvaluateFamily() may be called
/// concurrently from any number of threads (the cache is guarded by a
/// shared mutex and entries are immutable once built). Builds are
/// single-flight: threads that miss the same key together wait for one
/// build, so each (model, group) pair is built once.
/// ClearCache() must not run concurrently with either.
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

  /// Residuals of the sample against every member of `family` using
  /// only the coordinates in `group`, from one cache lookup and one
  /// regressor application (docs/MATH.md §4): with z = x - mu_n over
  /// the group, y = R z, w = R^T y and g_c = d_c . w, the base residual
  /// is ||y||^2 and case c's is ||y||^2 - 2 g_c + e_c. The shift
  /// energies e_c are built once with the (family_key, group) regressor
  /// and cached beside it. Counts as one evaluation. Allocation-free
  /// once the entry is cached and `out` is warm.
  PW_NO_ALLOC PW_NODISCARD Status EvaluateFamily(
      const ClassFamily& family, uint64_t family_key,
      const linalg::Vector& sample, const std::vector<size_t>& group,
      FamilyResiduals* out);

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
    // R^T with R = (I - C_M C_M^+) C_D, shaped |D| x k, in the first
    // |D| rows of `storage`: stored transposed so applying it walks
    // contiguous rows, one per group coordinate
    // (linalg::TransposedTimesNormSq). A class-family entry appends
    // ceil(C / k) rows holding its C shift energies e_c = ||R d_c||^2
    // (row-major, so contiguous). Sharing the allocation keeps a family
    // entry at the heap allocations of any other entry, at the cost of
    // fewer than k spare doubles.
    linalg::Matrix storage;
    std::vector<size_t> group;
    size_t num_energies = 0;

    linalg::ConstMatrixView r_t() const {
      return linalg::ConstMatrixView(storage).Block(0, 0, group.size(),
                                                    storage.cols());
    }
    linalg::ConstVectorView energies() const {
      if (num_energies == 0) return {};
      return linalg::ConstVectorView(
          linalg::ConstMatrixView(storage).row(group.size()), num_energies);
    }
  };

  /// Cold path of Evaluate: builds the Eq. 9 missing-data regressor for
  /// a (model, group) pair, plus the shift energies when `family` is
  /// set. Runs once per pair; every later Evaluate applies the cached
  /// result allocation-free.
  PW_NODISCARD static Result<std::shared_ptr<const CachedRegressor>>
  BuildRegressor(const SubspaceModel& model, const std::vector<size_t>& group,
                 const ClassFamily* family);

  /// The cached regressor of (model_key, group), built and inserted on
  /// a miss by one thread while concurrent missers of the key wait.
  /// With `family` set, an entry must also carry the family's shift
  /// energies; one without them is rebuilt and replaced.
  PW_NODISCARD Result<std::shared_ptr<const CachedRegressor>> FindOrBuild(
      const SubspaceModel& model, uint64_t model_key,
      const std::vector<size_t>& group, const ClassFamily* family);

  /// Single-flight state of the cold path: the keys being built, and
  /// the signal each finished build sends to threads waiting on a key.
  /// Taken before `mu_`, never while holding it, and never held through
  /// a build.
  Mutex build_mu_{lock_rank::kProximityBuild};
  CondVar build_done_;
  std::vector<uint64_t> building_ PW_GUARDED_BY(build_mu_);

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
