#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdlib>

#include "common/sync.h"
#include "obs/metrics.h"

namespace phasorwatch::obs {

uint32_t CurrentTraceTid() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

TraceRing& TraceRing::Global() {
  static TraceRing* ring = [] {
    size_t capacity = kDefaultCapacity;
    if (const char* env = std::getenv("PW_TRACE_CAPACITY")) {
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && parsed > 0 &&
          parsed <= kMaxCapacity) {
        capacity = static_cast<size_t>(parsed);
      }
    }
    return new TraceRing(capacity);
  }();
  return *ring;
}

TraceRing::TraceRing(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  spans_.reserve(capacity_);
}

void TraceRing::Record(const TraceSpan& span) {
  {
    MutexLock lock(mu_);
    if (spans_.size() < capacity_) {
      spans_.push_back(span);
      ++next_;
      return;
    }
    spans_[next_ % capacity_] = span;
    ++next_;
  }
  // Wrapped: the oldest span was overwritten. Counted outside the ring
  // lock (the registry has its own).
  PW_OBS_COUNTER_INC("trace.spans_dropped");
}

std::vector<TraceSpan> TraceRing::Dump() const {
  MutexLock lock(mu_);
  std::vector<TraceSpan> out;
  out.reserve(spans_.size());
  if (spans_.size() < capacity_) {
    out = spans_;
  } else {
    // `next_ % capacity_` is the oldest slot once the ring has wrapped.
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(spans_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

void TraceRing::Clear() {
  MutexLock lock(mu_);
  spans_.clear();
  next_ = 0;
}

uint64_t TraceRing::total_recorded() const {
  MutexLock lock(mu_);
  return next_;
}

uint64_t TraceRing::spans_dropped() const {
  MutexLock lock(mu_);
  return next_ > capacity_ ? next_ - capacity_ : 0;
}

double MonotonicNowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

ScopedTimer::~ScopedTimer() {
  const double elapsed_us = MonotonicNowUs() - start_us_;
  if (quantile_ != nullptr) quantile_->Record(elapsed_us);
  TraceRing::Global().Record(
      TraceSpan{name_, start_us_, elapsed_us, CurrentTraceTid()});
}

}  // namespace phasorwatch::obs
