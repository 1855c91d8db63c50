#ifndef PHASORWATCH_OBS_METRICS_H_
#define PHASORWATCH_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/sync.h"
#include "obs/quantile.h"

namespace phasorwatch::obs {

/// Monotonic event counter. Lock-free; safe to increment from any
/// thread. Pointers handed out by the registry stay valid for the
/// process lifetime, so call sites may cache them in static storage.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written-value instrument (cache sizes, active-alarm flags).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// Raises the gauge to `value` if it is above the current reading
  /// (lossless under concurrency). High-water instruments: peak frame
  /// latency, deepest queue, largest arena.
  void Max(double value) {
    double current = value_.load(std::memory_order_relaxed);
    while (value > current &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Process-global registry of named instruments. Get* registers on
/// first use and returns the same pointer thereafter; instruments are
/// never deleted, so returned pointers can be cached indefinitely.
/// All methods are thread-safe.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `options` is used only on first registration; later calls with a
  /// different shape return the existing histogram unchanged.
  QuantileHistogram* GetQuantile(const std::string& name,
                                 const QuantileOptions& options);

  /// Lookup without registration (nullptr when absent). For tests and
  /// exporters that must not create instruments as a side effect.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const QuantileHistogram* FindQuantile(const std::string& name) const;

  /// Structured per-section snapshots for exporters (the run-report
  /// builder in obs/report.h). Keys come back sorted (std::map), so
  /// consumers emit deterministically ordered documents.
  std::map<std::string, uint64_t> CounterValues() const;
  std::map<std::string, double> GaugeValues() const;
  std::map<std::string, QuantileHistogram::Snapshot> QuantileSnapshots()
      const;

  /// Human-readable snapshot: one line per instrument, sorted by name.
  /// The machine-readable form is obs::RunReportBuilder::Json().
  std::string TextSnapshot() const;

  /// Zeroes every registered instrument (names and pointers survive;
  /// cached call-site pointers stay valid). Intended for tests and
  /// between-run resets in benchmark harnesses.
  void ResetAll();

  size_t num_instruments() const;

 private:
  MetricsRegistry() = default;

  /// Instruments are lock-free, so the registry lock is the only one
  /// the snapshot methods take.
  mutable Mutex mu_{lock_rank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PW_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ PW_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<QuantileHistogram>> quantiles_
      PW_GUARDED_BY(mu_);
};

}  // namespace phasorwatch::obs

// --- instrumentation macros -------------------------------------------
//
// Call sites use these rather than the classes directly so that a
// build with -DPW_OBS_DISABLED=ON compiles every hot-path hook down to
// nothing. Each expansion caches its instrument pointer in a
// function-local static: after the first hit the cost is one relaxed
// atomic add.

#ifndef PW_OBS_DISABLED

#define PW_OBS_COUNTER_INC(name) PW_OBS_COUNTER_ADD(name, 1)

#define PW_OBS_COUNTER_ADD(name, delta)                                   \
  do {                                                                    \
    static ::phasorwatch::obs::Counter* pw_obs_counter_ =                 \
        ::phasorwatch::obs::MetricsRegistry::Global().GetCounter(name);   \
    pw_obs_counter_->Increment(static_cast<uint64_t>(delta));             \
  } while (0)

#define PW_OBS_GAUGE_SET(name, value)                                     \
  do {                                                                    \
    static ::phasorwatch::obs::Gauge* pw_obs_gauge_ =                     \
        ::phasorwatch::obs::MetricsRegistry::Global().GetGauge(name);     \
    pw_obs_gauge_->Set(static_cast<double>(value));                       \
  } while (0)

#define PW_OBS_GAUGE_MAX(name, value)                                     \
  do {                                                                    \
    static ::phasorwatch::obs::Gauge* pw_obs_gauge_ =                     \
        ::phasorwatch::obs::MetricsRegistry::Global().GetGauge(name);     \
    pw_obs_gauge_->Max(static_cast<double>(value));                       \
  } while (0)

/// Records into a quantile histogram with the default shape (0.1 ..
/// 1e7, <= 6.25% relative error): microsecond latencies, and small
/// counts such as solver iterations, whose exact min/max clamp every
/// reported quantile. After the first hit the cost is a bucket
/// computation plus relaxed atomics — no locks, no allocations.
#define PW_OBS_QUANTILE_RECORD(name, value)                               \
  do {                                                                    \
    static ::phasorwatch::obs::QuantileHistogram* pw_obs_quantile_ =      \
        ::phasorwatch::obs::MetricsRegistry::Global().GetQuantile(        \
            name, ::phasorwatch::obs::DefaultLatencyQuantileOptions());   \
    pw_obs_quantile_->Record(static_cast<double>(value));                 \
  } while (0)

#else  // PW_OBS_DISABLED

#define PW_OBS_COUNTER_INC(name) ((void)0)
#define PW_OBS_COUNTER_ADD(name, delta) ((void)0)
#define PW_OBS_GAUGE_SET(name, value) ((void)0)
#define PW_OBS_GAUGE_MAX(name, value) ((void)0)
#define PW_OBS_QUANTILE_RECORD(name, value) ((void)0)

#endif  // PW_OBS_DISABLED

#endif  // PHASORWATCH_OBS_METRICS_H_
