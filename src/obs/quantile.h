#ifndef PHASORWATCH_OBS_QUANTILE_H_
#define PHASORWATCH_OBS_QUANTILE_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.h"

namespace phasorwatch::obs {

/// Shape of a QuantileHistogram: geometric (log-spaced) buckets over
/// [min, max). Each octave (doubling of the value) is subdivided into
/// `buckets_per_octave` linear sub-buckets, the classic HDR-histogram
/// layout: bucket boundaries grow by a factor of (1 + 1/B) per bucket,
/// so any recorded value lands in a bucket whose width is at most
/// 1/B of its lower bound. Reported quantiles are therefore accurate
/// to a relative error of at most 100/B percent (6.25% at the default
/// B = 16), independent of the value's magnitude, and every quantile is
/// clamped to the exactly tracked [min, max].
struct QuantileOptions {
  /// Lowest resolvable value; smaller observations land in the
  /// underflow bucket (reported as <= min).
  double min = 0.1;
  /// Observations >= max land in the overflow bucket (reported between
  /// max and the exact observed maximum, which is tracked separately).
  double max = 1e7;
  /// Sub-buckets per octave (B above). Memory grows linearly with it.
  size_t buckets_per_octave = 16;
};

/// Default shape for latency series in microseconds: 0.1 us .. 10 s,
/// <= 6.25% relative error, ~27 octaves * 16 buckets ~ 3.5 KB of
/// counters per stripe.
const QuantileOptions& DefaultLatencyQuantileOptions();

/// Lock-free, allocation-free quantile histogram: the registry's one
/// distribution instrument, behind every PW_TRACE_SCOPE latency series
/// and every PW_OBS_QUANTILE_RECORD count series (HDR-style log
/// bucketing, see QuantileOptions).
///
/// Concurrency: Record() is wait-free apart from bounded CAS retries on
/// the per-stripe min/max/sum cells and never allocates; counters are
/// striped across kStripes cache-line-isolated slots (threads pick a
/// stripe round-robin on first use) so concurrent recorders do not
/// contend on the same lines. TakeSnapshot()/Reset() walk every stripe
/// with relaxed loads: snapshots taken while recorders are running are
/// approximate in the usual monitoring sense (they may miss in-flight
/// updates) but each bucket count is itself exact.
///
/// Non-finite values are dropped (a NaN latency is an upstream bug,
/// not an observation).
class QuantileHistogram {
 public:
  static constexpr size_t kStripes = 8;

  explicit QuantileHistogram(const QuantileOptions& options);
  QuantileHistogram() : QuantileHistogram(DefaultLatencyQuantileOptions()) {}

  QuantileHistogram(const QuantileHistogram&) = delete;
  QuantileHistogram& operator=(const QuantileHistogram&) = delete;

  /// Records one observation. Lock-free, allocation-free, safe from any
  /// thread; the steady-state cost is one bucket computation (frexp)
  /// plus a handful of relaxed atomic updates.
  void Record(double value) {
    if (!std::isfinite(value)) return;
    const size_t stripe = ThreadStripe();
    counts_[stripe * buckets_ + BucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    Stats& stats = stats_[stripe];
    stats.count.fetch_add(1, std::memory_order_relaxed);
    AtomicAdd(&stats.sum, value);
    AtomicMin(&stats.min, value);
    AtomicMax(&stats.max, value);
  }

  /// Aggregated, mergeable view. Aggregation across stripes is
  /// deterministic (fixed stripe order), so two snapshots of histograms
  /// holding the same per-stripe contents are byte-identical.
  struct Snapshot {
    QuantileOptions options;
    /// Per-bucket counts: [0] underflow, then octaves * B geometric
    /// buckets, last overflow.
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< exact observed extrema; valid when count > 0
    double max = 0.0;

    double mean() const { return count == 0 ? 0.0 : sum / count; }
    /// Quantile estimate for q in [0, 1], linearly interpolated inside
    /// the covering bucket and clamped to the exact [min, max]. See the
    /// QuantileOptions relative-error bound.
    double Quantile(double q) const;
    double p50() const { return Quantile(0.50); }
    double p90() const { return Quantile(0.90); }
    double p99() const { return Quantile(0.99); }
    double p999() const { return Quantile(0.999); }

    /// Accumulates `other` (same bucket shape required) into this
    /// snapshot; cross-shard aggregation for fleet-style reporting.
    void Merge(const Snapshot& other);

    /// Inclusive lower / exclusive upper value edges of bucket `idx`
    /// (the under/overflow edges are clamped to the observed extrema).
    double BucketLowerBound(size_t idx) const;
    double BucketUpperBound(size_t idx) const;
  };

  Snapshot TakeSnapshot() const;
  void Reset();

  const QuantileOptions& options() const { return options_; }
  /// Total buckets including underflow and overflow.
  size_t num_buckets() const { return buckets_; }

  /// Bucket index for a value (exposed for tests): 0 for value < min,
  /// buckets()-1 for value >= max, geometric interior otherwise.
  size_t BucketIndex(double value) const {
    if (!(value >= options_.min)) return 0;
    if (value >= options_.max) return buckets_ - 1;
    int exp = 0;
    // value/min in [1, max/min)  =>  frac in [0.5, 1), exp >= 1.
    const double frac = std::frexp(value / options_.min, &exp);
    const size_t octave = static_cast<size_t>(exp - 1);
    size_t sub = static_cast<size_t>(
        (frac * 2.0 - 1.0) * static_cast<double>(options_.buckets_per_octave));
    if (sub >= options_.buckets_per_octave) {
      sub = options_.buckets_per_octave - 1;
    }
    const size_t idx = 1 + octave * options_.buckets_per_octave + sub;
    // Rounding at the very top of the range must not spill into the
    // overflow bucket (values >= max were already routed there).
    return idx < buckets_ - 1 ? idx : buckets_ - 2;
  }

 private:
  struct alignas(64) Stats {
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };

  static void AtomicAdd(std::atomic<double>* cell, double delta) {
    double current = cell->load(std::memory_order_relaxed);
    while (!cell->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    }
  }
  static void AtomicMin(std::atomic<double>* cell, double value) {
    double current = cell->load(std::memory_order_relaxed);
    while (value < current &&
           !cell->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<double>* cell, double value) {
    double current = cell->load(std::memory_order_relaxed);
    while (value > current &&
           !cell->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    }
  }

  /// Round-robin stripe assignment, fixed per thread at first use.
  static size_t ThreadStripe();

  QuantileOptions options_;
  size_t octaves_ = 0;
  size_t buckets_ = 0;  ///< per stripe, incl. under/overflow
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  ///< kStripes * buckets_
  std::unique_ptr<Stats[]> stats_;                   ///< kStripes
};

}  // namespace phasorwatch::obs

#endif  // PHASORWATCH_OBS_QUANTILE_H_
