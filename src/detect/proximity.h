#ifndef PHASORWATCH_DETECT_PROXIMITY_H_
#define PHASORWATCH_DETECT_PROXIMITY_H_

#include <cstdint>
#include <memory>
#include <optional>
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
  /// T = B^T [d_1 ... d_C] over every coordinate, k x C: column c is
  /// T_c = B^T d_c. Over a coordinate set D the regressed shift is
  /// R d_c = P T_c (P the projector off the hidden block's range,
  /// docs/MATH.md §4), so EvaluateFamily scores every case with
  /// g = T y and no walk over the coordinates.
  const linalg::Matrix& shift_projections() const {
    return shift_projections_;
  }
  /// e_c = ||T_c||^2 = ||B^T d_c||^2 over every coordinate. Masked
  /// coordinate sets keep theirs in the regressor cache entry; complete
  /// data has no cache entry, so its energies live here.
  const linalg::Vector& complete_energies() const {
    return complete_energies_;
  }

 private:
  SubspaceModel base_;
  std::vector<linalg::Vector> case_means_;
  linalg::Matrix shifts_;
  linalg::Matrix shift_projections_;
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
  /// r_c = max(0, r_0 - 2 g_c + e_c), case c's residual, with
  /// g_c = T_c . y.
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
///   prox = || P C_D z_D ||^2,   P = I - C_M C_M^+,
/// i.e. Eq. 9 / [12] with R = P C_D. Each (model, D) pair caches the
/// smaller of two factors of R, picked by |M| < |D| alone
/// (docs/MATH.md §3):
///  - a projector entry keeps Q, an orthonormal basis of range(C_M) as
///    r <= |M| rows of k, and applies y = C_D z_D - Q^T (Q C_D z_D)
///    walking the shared basis rows of D;
///  - a regressor entry keeps R^T, |D| rows of k, and applies y = R z_D.
/// The rank of range(C_M) is the pseudo-inverse's (singular values
/// above 1e-10 of the largest). Detection groups repeat heavily across
/// samples, so every build is amortized.
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
      PW_NO_THREAD_SAFETY_ANALYSIS
      : orthonormal_(std::move(other.orthonormal_)),
        cache_(std::move(other.cache_)),
        cache_bytes_(other.cache_bytes_) {}
  // Move is documented single-threaded (see move constructor).
  ProximityEngine& operator=(ProximityEngine&& other) noexcept
      PW_NO_THREAD_SAFETY_ANALYSIS {
    if (this != &other) {
      orthonormal_ = std::move(other.orthonormal_);
      cache_ = std::move(other.cache_);
      cache_bytes_ = other.cache_bytes_;
    }
    return *this;
  }

  /// Proximity of the sample to `model` using only coordinates in
  /// `group` (must be non-empty and contain no missing nodes).
  /// `model_key` identifies the model for caching (stable unique id).
  /// A group covering every coordinate is the complete-data case and
  /// reduces to SubspaceModel::Proximity. Allocation-free once the
  /// (model, group) entry is cached (a projector entry applies in a
  /// stack block of kStackDoubles, which every entry a detection group
  /// builds fits; a wider one takes a heap buffer); the cold build
  /// path lives in BuildRegressor.
  PW_NO_ALLOC PW_NODISCARD Result<double> Evaluate(
      const SubspaceModel& model, uint64_t model_key,
      const linalg::Vector& sample, const std::vector<size_t>& group);

  /// Residuals of the sample against every member of `family` using
  /// only the coordinates in `group`, from one cache lookup and one
  /// regressor application (docs/MATH.md §4): with z = x - mu_n over
  /// the group, y = R z (read through the entry as in Evaluate) and
  /// g = T y (ClassFamily::shift_projections), the base residual is
  /// ||y||^2 and case c's is ||y||^2 - 2 g_c + e_c. The shift energies
  /// e_c = ||P T_c||^2 are built once with the (family_key, group)
  /// entry and cached beside it. Counts as one evaluation.
  /// Allocation-free once the entry is cached and `out` is warm (Q y
  /// takes Evaluate's stack block).
  PW_NO_ALLOC PW_NODISCARD Status EvaluateFamily(
      const ClassFamily& family, uint64_t family_key,
      const linalg::Vector& sample, const std::vector<size_t>& group,
      FamilyResiduals* out);

  size_t cache_size() const {
    ReaderLock lock(mu_);
    return cache_.size();
  }
  /// Bytes the cached entries hold in factor, energy and group storage
  /// (the `proximity.cache_bytes` gauge, set on insert).
  size_t cache_bytes() const {
    ReaderLock lock(mu_);
    return cache_bytes_;
  }
  /// One cached entry's identity (introspection for tests).
  struct CachedKey {
    uint64_t model_key = 0;
    std::vector<size_t> group;
    /// The entry carries a class family's shift energies.
    bool family = false;
  };
  /// Every cached entry, in no particular order. Allocates; not for a
  /// hot path.
  std::vector<CachedKey> CachedKeys() const;
  void ClearCache() {
    {
      MutexLock lock(build_mu_);
      orthonormal_.clear();
    }
    WriterLock lock(mu_);
    cache_.clear();
    cache_bytes_ = 0;
  }

  /// Doubles of the stack block a projector entry applies in: k for y
  /// (Evaluate only) plus one per row of Q.
  static constexpr size_t kStackDoubles = 512;

 private:
  struct CachedRegressor {
    // One factor of R = P C_D in the first `factor_rows` rows of
    // `storage`, each of k doubles:
    //  - projector entry: Q, r orthonormal rows spanning range(C_M);
    //  - regressor entry: R^T, one row per group coordinate, walked by
    //    rows (linalg::TransposedTimesNormSq).
    // A class-family entry appends ceil(C / k) rows holding its C shift
    // energies e_c = ||P T_c||^2 (row-major, so contiguous). Sharing the
    // allocation keeps a family entry at the heap allocations of any
    // other entry, at the cost of fewer than k spare doubles.
    linalg::Matrix storage;
    std::vector<size_t> group;
    uint64_t model_key = 0;
    size_t factor_rows = 0;
    size_t num_energies = 0;
    bool projector = false;

    linalg::ConstMatrixView factor() const {
      return linalg::ConstMatrixView(storage).Block(0, 0, factor_rows,
                                                    storage.cols());
    }
    linalg::ConstVectorView energies() const {
      if (num_energies == 0) return {};
      return linalg::ConstVectorView(
          linalg::ConstMatrixView(storage).row(factor_rows), num_energies);
    }
    /// Heap bytes of the factor, energies and group.
    size_t bytes() const {
      return storage.rows() * storage.cols() * sizeof(double) +
             group.size() * sizeof(size_t);
    }
  };

  /// y = R z over the entry's group, z = x - mean: the one walk both
  /// Evaluate and EvaluateFamily read an entry through. `b` is the
  /// model's basis (read by projector entries), `hidden` the Q y
  /// scratch (factor_rows doubles of a projector entry).
  PW_NO_ALLOC static void ApplyEntry(const CachedRegressor& entry,
                                     const linalg::Matrix& b,
                                     const linalg::Vector& x,
                                     const linalg::Vector& mean,
                                     linalg::VectorView y,
                                     linalg::VectorView hidden);

  /// Cold path of Evaluate: builds the Eq. 9 factor for a (model,
  /// group) pair, plus the shift energies when `family` is set. Runs
  /// once per pair; every later Evaluate applies the cached result
  /// allocation-free. `orthonormal` memoizes whether the model's basis
  /// has orthonormal columns: filled in when a regressor entry needs to
  /// know and it is still empty.
  PW_NODISCARD static Result<std::shared_ptr<const CachedRegressor>>
  BuildRegressor(const SubspaceModel& model, uint64_t model_key,
                 const std::vector<size_t>& group, const ClassFamily* family,
                 std::optional<bool>* orthonormal);

  /// The cached entry of (model_key, group), built and inserted on a
  /// miss by one thread while concurrent missers of the key wait. With
  /// `family` set, an entry must also carry the family's shift
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
  /// Per model key: whether its basis has orthonormal columns, which
  /// lets a regressor entry build from the C_D side. Checked once per
  /// key, on its first regressor-entry build.
  std::unordered_map<uint64_t, bool> orthonormal_ PW_GUARDED_BY(build_mu_);

  mutable SharedMutex mu_{lock_rank::kProximityCache};
  /// Values are shared_ptr so an Evaluate() can keep applying a
  /// regressor lock-free while other threads insert new entries.
  std::unordered_map<uint64_t, std::shared_ptr<const CachedRegressor>> cache_
      PW_GUARDED_BY(mu_);
  /// Sum of CachedRegressor::bytes() over cache_.
  size_t cache_bytes_ PW_GUARDED_BY(mu_) = 0;
};

/// Stable hash key combining a model id and a detection-group member
/// set (order-insensitive within sorted groups).
uint64_t GroupCacheKey(uint64_t model_key, const std::vector<size_t>& group);

}  // namespace phasorwatch::detect

#endif  // PHASORWATCH_DETECT_PROXIMITY_H_
