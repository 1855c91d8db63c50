#ifndef PHASORWATCH_OBS_TRACE_H_
#define PHASORWATCH_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"
#include "obs/quantile.h"

namespace phasorwatch::obs {

/// One completed timed scope. `name` points at the call site's string
/// literal, so spans stay trivially copyable.
struct TraceSpan {
  const char* name = "";
  /// Start offset relative to process start (first trace ever taken).
  double start_us = 0.0;
  double duration_us = 0.0;
  /// Small sequential id of the recording thread (first-use order, not
  /// the OS tid) — what the Chrome-trace exporter fans lanes out by.
  uint32_t tid = 0;
};

/// Compact per-thread trace lane id: 0-based, assigned in first-use
/// order, stable for the thread's lifetime.
uint32_t CurrentTraceTid();

/// Fixed-capacity ring of the most recent completed spans, for
/// post-mortem "what was the pipeline doing" dumps and Chrome-trace
/// export (obs/trace_export.h). Thread-safe.
///
/// The global ring's capacity is kDefaultCapacity unless the
/// PW_TRACE_CAPACITY environment variable names a positive span count
/// (read once, at first use). Once the ring wraps, each overwritten
/// span bumps the `trace.spans_dropped` counter and spans_dropped().
class TraceRing {
 public:
  static constexpr size_t kDefaultCapacity = 256;
  /// Upper bound accepted from PW_TRACE_CAPACITY (64 MiB of spans is
  /// beyond any debugging need and guards against a stray value).
  static constexpr size_t kMaxCapacity = size_t{1} << 21;

  static TraceRing& Global();

  explicit TraceRing(size_t capacity = kDefaultCapacity);

  void Record(const TraceSpan& span);

  /// Spans oldest-first (at most `capacity` of them).
  std::vector<TraceSpan> Dump() const;

  void Clear();
  size_t capacity() const { return capacity_; }
  uint64_t total_recorded() const;
  /// Spans overwritten since construction or Clear() (the ring kept
  /// only the newest `capacity()` of total_recorded()).
  uint64_t spans_dropped() const;

 private:
  const size_t capacity_;
  mutable Mutex mu_{lock_rank::kTraceRing};
  std::vector<TraceSpan> spans_ PW_GUARDED_BY(mu_);  // ring storage
  uint64_t next_ PW_GUARDED_BY(mu_) = 0;  // total spans ever recorded
};

/// Microseconds since the process's first call (monotonic clock).
double MonotonicNowUs();

/// RAII wall-clock timer: on destruction records the elapsed time
/// (microseconds) into the given quantile histogram and appends a span
/// to the global trace ring. A null histogram records the span only.
/// Use via PW_TRACE_SCOPE below so disabled builds compile the whole
/// thing out.
class ScopedTimer {
 public:
  ScopedTimer(QuantileHistogram* quantile, const char* name)
      : quantile_(quantile),
        name_(name),
        // The process epoch, not a raw time_point: the first span ever
        // taken pins the epoch here, so exported start offsets are
        // always >= 0.
        start_us_(MonotonicNowUs()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer();

 private:
  QuantileHistogram* quantile_;  // not owned; may be nullptr
  const char* name_;
  double start_us_;
};

}  // namespace phasorwatch::obs

#define PW_OBS_CONCAT_INNER_(a, b) a##b
#define PW_OBS_CONCAT_(a, b) PW_OBS_CONCAT_INNER_(a, b)

#ifndef PW_OBS_DISABLED

/// Times the enclosing scope into the quantile histogram `name` (unit:
/// microseconds, default latency shape — obs/quantile.h) and the global
/// trace ring. The histogram pointer is resolved once per call site.
#define PW_TRACE_SCOPE(name)                                              \
  ::phasorwatch::obs::ScopedTimer PW_OBS_CONCAT_(pw_trace_scope_,         \
                                                 __LINE__)(               \
      [] {                                                                \
        static ::phasorwatch::obs::QuantileHistogram* pw_trace_quant_ =   \
            ::phasorwatch::obs::MetricsRegistry::Global().GetQuantile(    \
                name,                                                     \
                ::phasorwatch::obs::DefaultLatencyQuantileOptions());     \
        return pw_trace_quant_;                                           \
      }(),                                                                \
      name)

#else  // PW_OBS_DISABLED

#define PW_TRACE_SCOPE(name) ((void)0)

#endif  // PW_OBS_DISABLED

#endif  // PHASORWATCH_OBS_TRACE_H_
