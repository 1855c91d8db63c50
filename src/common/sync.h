#ifndef PHASORWATCH_COMMON_SYNC_H_
#define PHASORWATCH_COMMON_SYNC_H_

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>

#include "common/check.h"

/// Concurrency contract layer (see docs/STATIC_ANALYSIS.md,
/// "Concurrency contracts"). Every lock in the tree goes through the
/// wrappers below — tools/pw_lint.py's `sync-discipline` rule rejects
/// raw std::mutex / std::lock_guard outside this header — so that:
///
///   1. Clang Thread Safety Analysis (-Wthread-safety, the
///      PW_THREAD_SAFETY=ON lane in scripts/check.sh) can prove at
///      compile time that every PW_GUARDED_BY field is only touched
///      with its mutex held and every PW_REQUIRES method is only
///      called under lock. On non-Clang compilers the attributes
///      expand to nothing and the wrappers are zero-overhead
///      pass-throughs to the std types.
///   2. A debug-only lock-rank detector (active when PW_DCHECK_IS_ON)
///      aborts at the acquisition site of any lock-order inversion or
///      self-deadlock, instead of deadlocking in production. Ranks are
///      declared at mutex construction from the table in `lock_rank`;
///      an unranked mutex participates in held-lock tracking (so
///      AssertHeld works) but is exempt from ordering checks.
///
/// Attribute vocabulary (all expand to nothing on non-Clang):
///
///   PW_CAPABILITY(name)         class is a lockable capability
///   PW_SCOPED_CAPABILITY        RAII type that acquires in its ctor
///   PW_GUARDED_BY(mu)           field requires mu held to touch
///   PW_PT_GUARDED_BY(mu)        pointee requires mu held to touch
///   PW_REQUIRES(mu...)          caller must hold mu exclusively
///   PW_REQUIRES_SHARED(mu...)   caller must hold mu at least shared
///   PW_ACQUIRE(mu...)           function acquires mu, returns held
///   PW_ACQUIRE_SHARED(mu...)    shared flavor of PW_ACQUIRE
///   PW_RELEASE(mu...)           function releases mu
///   PW_RELEASE_SHARED(mu...)    shared flavor of PW_RELEASE
///   PW_TRY_ACQUIRE(ok, mu...)   acquires mu when returning `ok`
///   PW_EXCLUDES(mu...)          caller must NOT hold mu (deadlock)
///   PW_ASSERT_CAPABILITY(mu)    runtime assertion that mu is held
///   PW_RETURN_CAPABILITY(mu)    function returns a reference to mu
///   PW_ACQUIRED_BEFORE(mu...)   declaration-site ordering hint
///   PW_ACQUIRED_AFTER(mu...)    declaration-site ordering hint
///   PW_NO_THREAD_SAFETY_ANALYSIS
///       opt a function out of the analysis. pw-lint requires a
///       justification comment on the same or preceding line.

#if defined(__clang__)
#define PW_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PW_THREAD_ANNOTATION_(x)
#endif

#define PW_CAPABILITY(x) PW_THREAD_ANNOTATION_(capability(x))
#define PW_SCOPED_CAPABILITY PW_THREAD_ANNOTATION_(scoped_lockable)
#define PW_GUARDED_BY(x) PW_THREAD_ANNOTATION_(guarded_by(x))
#define PW_PT_GUARDED_BY(x) PW_THREAD_ANNOTATION_(pt_guarded_by(x))
#define PW_REQUIRES(...) PW_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define PW_REQUIRES_SHARED(...) \
  PW_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define PW_ACQUIRE(...) PW_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define PW_ACQUIRE_SHARED(...) \
  PW_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define PW_RELEASE(...) \
  PW_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
#define PW_RELEASE_SHARED(...) \
  PW_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define PW_TRY_ACQUIRE(...) \
  PW_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define PW_EXCLUDES(...) PW_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define PW_ASSERT_CAPABILITY(x) PW_THREAD_ANNOTATION_(assert_capability(x))
#define PW_ASSERT_SHARED_CAPABILITY(x) \
  PW_THREAD_ANNOTATION_(assert_shared_capability(x))
#define PW_RETURN_CAPABILITY(x) PW_THREAD_ANNOTATION_(lock_returned(x))
#define PW_ACQUIRED_BEFORE(...) \
  PW_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define PW_ACQUIRED_AFTER(...) PW_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define PW_NO_THREAD_SAFETY_ANALYSIS \
  PW_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace phasorwatch {

/// Global lock-order table. A thread may only acquire a ranked mutex
/// whose rank is strictly greater than every ranked mutex it already
/// holds; the debug detector aborts on violation. Gaps are deliberate —
/// new locks slot in without renumbering. Keep this table and the one
/// in docs/STATIC_ANALYSIS.md in sync.
///
/// Domain locks rank low and instrumentation locks rank high, so code
/// holding a detector/fleet lock may still lazily resolve an obs
/// instrument (which briefly takes the registry lock).
namespace lock_rank {
inline constexpr int kUnranked = -1;       // exempt from ordering checks
inline constexpr int kFleetControl = 10;   // FleetEngine Shard::control_mu
inline constexpr int kFleetDone = 15;      // RunOnShard completion latch
inline constexpr int kThreadPool = 20;     // ThreadPool::mu_
inline constexpr int kParallelFor = 25;    // ParallelFor ForState::mu
inline constexpr int kProximityBuild = 28; // ProximityEngine::build_mu_
inline constexpr int kProximityCache = 30; // ProximityEngine::mu_
inline constexpr int kTenantModel = 35;    // TenantSession model slot (leaf)
inline constexpr int kMetricsRegistry = 40;// MetricsRegistry::mu_
inline constexpr int kTraceRing = 60;      // TraceRing::mu_
inline constexpr int kEventLog = 70;       // EventLog::mu_
}  // namespace lock_rank

namespace sync_internal {

#if PW_DCHECK_IS_ON

/// Per-thread stack of held locks. Fixed-size so the tracker itself
/// never allocates (lock acquisition sits on instrumented hot paths).
struct HeldStack {
  static constexpr size_t kMaxDepth = 64;
  const void* caps[kMaxDepth];
  int ranks[kMaxDepth];
  size_t depth = 0;
};

inline HeldStack& TlsHeldStack() {
  thread_local HeldStack stack;
  return stack;
}

/// Records an acquisition; aborts on self-deadlock (re-acquiring a
/// capability this thread already holds) and, when `check_rank` is set
/// (blocking acquisitions only — TryLock cannot deadlock), on rank
/// inversion against any held ranked lock. Called *before* the
/// underlying lock so an inversion aborts with a diagnostic instead of
/// deadlocking.
inline void OnAcquire(const void* cap, int rank, bool check_rank) {
  HeldStack& held = TlsHeldStack();
  for (size_t i = 0; i < held.depth; ++i) {
    if (held.caps[i] == cap) {
      std::fprintf(stderr,
                   "PW_SYNC self-deadlock: thread re-acquiring a lock it "
                   "already holds (rank %d)\n",
                   rank);
      std::abort();
    }
    if (check_rank && rank != lock_rank::kUnranked &&
        held.ranks[i] != lock_rank::kUnranked && held.ranks[i] >= rank) {
      std::fprintf(stderr,
                   "PW_SYNC lock rank inversion: acquiring rank %d while "
                   "holding rank %d (see lock_rank table in common/sync.h)\n",
                   rank, held.ranks[i]);
      std::abort();
    }
  }
  PW_CHECK_MSG(held.depth < HeldStack::kMaxDepth,
               "held-lock stack overflow: raise HeldStack::kMaxDepth");
  held.caps[held.depth] = cap;
  held.ranks[held.depth] = rank;
  ++held.depth;
}

inline void OnRelease(const void* cap) {
  HeldStack& held = TlsHeldStack();
  for (size_t i = held.depth; i-- > 0;) {
    if (held.caps[i] == cap) {
      for (size_t j = i + 1; j < held.depth; ++j) {
        held.caps[j - 1] = held.caps[j];
        held.ranks[j - 1] = held.ranks[j];
      }
      --held.depth;
      return;
    }
  }
  std::fprintf(stderr,
               "PW_SYNC releasing a lock this thread does not hold\n");
  std::abort();
}

inline bool IsHeld(const void* cap) {
  const HeldStack& held = TlsHeldStack();
  for (size_t i = 0; i < held.depth; ++i) {
    if (held.caps[i] == cap) return true;
  }
  return false;
}

#else  // !PW_DCHECK_IS_ON

inline void OnAcquire(const void*, int, bool) {}
inline void OnRelease(const void*) {}
inline bool IsHeld(const void*) { return true; }

#endif  // PW_DCHECK_IS_ON

}  // namespace sync_internal

class CondVar;

/// Exclusive mutex. A thin wrapper over std::mutex that (a) carries the
/// capability annotation Clang's analysis keys on and (b) feeds the
/// debug lock-rank detector. Construct with a rank from the
/// `lock_rank` table to opt into ordering checks; default construction
/// is unranked (tracked for AssertHeld, exempt from ordering).
class PW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(int rank) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PW_ACQUIRE() {
    sync_internal::OnAcquire(this, rank_, /*check_rank=*/true);
    mu_.lock();
  }

  void Unlock() PW_RELEASE() {
    sync_internal::OnRelease(this);
    mu_.unlock();
  }

  PW_NODISCARD bool TryLock() PW_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    sync_internal::OnAcquire(this, rank_, /*check_rank=*/false);
    return true;
  }

  /// Backs PW_REQUIRES contracts at runtime when the compile-time
  /// analysis is unavailable: abort (debug builds) if the calling
  /// thread does not hold this mutex.
  void AssertHeld() const PW_ASSERT_CAPABILITY(this) {
    PW_DCHECK_MSG(sync_internal::IsHeld(this),
                  "PW_REQUIRES violated: calling thread does not hold the "
                  "mutex");
  }

 private:
  friend class CondVar;
  std::mutex mu_;
  int rank_ = lock_rank::kUnranked;
};

/// Reader/writer mutex wrapping std::shared_mutex. Same rank and
/// tracking semantics as Mutex; a shared hold participates in rank
/// ordering exactly like an exclusive one (a reader waiting behind a
/// writer deadlocks just as hard).
class PW_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(int rank) : rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() PW_ACQUIRE() {
    sync_internal::OnAcquire(this, rank_, /*check_rank=*/true);
    mu_.lock();
  }

  void Unlock() PW_RELEASE() {
    sync_internal::OnRelease(this);
    mu_.unlock();
  }

  void LockShared() PW_ACQUIRE_SHARED() {
    sync_internal::OnAcquire(this, rank_, /*check_rank=*/true);
    mu_.lock_shared();
  }

  void UnlockShared() PW_RELEASE_SHARED() {
    sync_internal::OnRelease(this);
    mu_.unlock_shared();
  }

  void AssertHeld() const PW_ASSERT_CAPABILITY(this) {
    PW_DCHECK_MSG(sync_internal::IsHeld(this),
                  "PW_REQUIRES violated: calling thread does not hold the "
                  "shared mutex");
  }

  void AssertReaderHeld() const PW_ASSERT_SHARED_CAPABILITY(this) {
    PW_DCHECK_MSG(sync_internal::IsHeld(this),
                  "PW_REQUIRES_SHARED violated: calling thread holds neither "
                  "a shared nor an exclusive lock");
  }

 private:
  std::shared_mutex mu_;
  int rank_ = lock_rank::kUnranked;
};

/// RAII exclusive lock over Mutex — the project's std::lock_guard.
class PW_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PW_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() PW_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII shared (reader) lock over SharedMutex.
class PW_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) PW_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() PW_RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock over SharedMutex.
class PW_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) PW_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~WriterLock() PW_RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to the project Mutex. Wait() takes the
/// Mutex directly (PW_REQUIRES keeps the contract visible to the
/// analysis); call sites use explicit `while (!predicate)` loops
/// instead of predicate lambdas — a lambda body is opaque to the
/// thread-safety analysis, a while loop is not.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified (or spuriously
  /// woken — callers loop on their predicate), and re-acquires `mu`
  /// before returning. The held-lock tracker keeps `mu` registered
  /// across the wait: the capability is conceptually held for the full
  /// scope, and this thread cannot acquire anything else while blocked.
  void Wait(Mutex& mu) PW_REQUIRES(mu) {
    mu.AssertHeld();
    // Adopt the already-held std::mutex for the wait protocol, then
    // release ownership back to the caller's scoped lock without
    // unlocking.
    std::unique_lock<std::mutex> relock(mu.mu_, std::adopt_lock);
    cv_.wait(relock);
    relock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace phasorwatch

#endif  // PHASORWATCH_COMMON_SYNC_H_
