// pw-lint self-test fixture: exercises the idioms the linter must NOT
// flag. Never compiled; linted by `pw_lint.py --self-test` only.
#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/sync.h"
#include "linalg/views.h"

namespace phasorwatch {

// Amortized mutation of pre-warmed containers is the sanctioned idiom:
// resize/clear/push_back never construct a fresh owning object, and the
// alloc_counter benchmark (not the linter) polices their steady state.
PW_NO_ALLOC Status WarmPath(std::vector<double>& scratch, size_t n) {
  scratch.resize(n);
  scratch.clear();
  for (size_t i = 0; i < n; ++i) scratch.push_back(0.0);
  if (n == 0) {
    // Error exits may build a message: the hot path is over anyway.
    return Status::InvalidArgument("empty input");
  }
  // A fixed stack block seen through a view is scratch, not heap.
  double block[8] = {};
  linalg::VectorView z(block, 8);
  PW_DCHECK_SIZE(z, 8);
  z[0] = 1.0;
  // References and views to Matrix/Vector are fine; only value
  // construction is banned.
  linalg::VectorView view = z;
  (void)view;
  return Status::OK();
}

// Rng::Fork derivation is the sanctioned seed-stream discipline.
void Forked(Rng& parent) {
  Rng child = parent.Fork(7);
  (void)child;
}

// An explicitly justified root seed stream.
void Root() {
  // pw-lint: allow(rng-discipline) fixture root stream for self-test.
  Rng rng(1234);
  (void)rng;
}

// Annotated Mutex-holding class: every mutable member is guarded,
// atomic, const, or carries a justified allow.
class GuardedCache {
 public:
  void Touch() PW_REQUIRES(mu_);

 private:
  mutable Mutex mu_;
  int hits_ PW_GUARDED_BY(mu_) = 0;
  std::atomic<int> peeks_{0};
  const int limit_ = 8;
  // pw-lint: allow(sync-discipline) written once before threads start.
  int config_generation_ = 0;
};

// Explicit memory orders on every atomic access, including a wrapped
// argument list the linter must match across lines.
std::atomic<int> g_clean_ticks{0};
int ExplicitOrders() {
  g_clean_ticks.fetch_add(1, std::memory_order_relaxed);
  g_clean_ticks.store(0,
                      std::memory_order_release);
  return g_clean_ticks.load(std::memory_order_acquire);
}

// A producer-gated call carrying its single-producer justification.
// PW_SINGLE_PRODUCER(PushSample)
class CleanRing {
 public:
  bool PushSample(int v);
};

void Pump(CleanRing& ring) {
  // pw-producer: Pump is the only thread feeding this fixture ring
  // (wrapped justification lines are part of the directive).
  (void)ring.PushSample(2);
}

}  // namespace phasorwatch
