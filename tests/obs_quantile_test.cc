// Tests for the HDR-style quantile histogram: bucketing geometry, the
// documented relative-error bound against exact (sorted) quantiles,
// cross-thread determinism of striped recording, snapshot merging, the
// Gauge::Max helper, and the macro layer.

#include "obs/quantile.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace phasorwatch::obs {
namespace {

// Exact sample quantile (nearest-rank with interpolation, matching the
// histogram's "target = q * count" walk closely enough for bound
// checks).
double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

TEST(QuantileHistogram, BucketIndexGeometry) {
  QuantileOptions opts;
  opts.min = 1.0;
  opts.max = 1024.0;  // 10 octaves
  opts.buckets_per_octave = 4;
  QuantileHistogram h(opts);
  EXPECT_EQ(h.num_buckets(), 10u * 4u + 2u);

  EXPECT_EQ(h.BucketIndex(0.5), 0u);              // underflow
  EXPECT_EQ(h.BucketIndex(-3.0), 0u);             // below min
  EXPECT_EQ(h.BucketIndex(1024.0), 41u);          // overflow (>= max)
  EXPECT_EQ(h.BucketIndex(1e12), 41u);
  EXPECT_EQ(h.BucketIndex(1.0), 1u);              // first interior
  // One octave up starts B buckets later.
  EXPECT_EQ(h.BucketIndex(2.0), 1u + 4u);
  EXPECT_EQ(h.BucketIndex(4.0), 1u + 8u);
  // Within an octave the sub-buckets are linear: 2..4 splits at 2.5,
  // 3.0, 3.5.
  EXPECT_EQ(h.BucketIndex(2.4), 5u);
  EXPECT_EQ(h.BucketIndex(2.6), 6u);
  EXPECT_EQ(h.BucketIndex(3.9), 8u);
  // Monotone: bucket index never decreases as the value grows.
  size_t prev = 0;
  for (double v = 0.25; v < 2048.0; v *= 1.07) {
    size_t idx = h.BucketIndex(v);
    EXPECT_GE(idx, prev) << "value " << v;
    prev = idx;
  }
}

TEST(QuantileHistogram, NonFiniteValuesAreDropped) {
  QuantileHistogram h;
  h.Record(std::nan(""));
  h.Record(std::numeric_limits<double>::infinity());
  h.Record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.TakeSnapshot().count, 0u);
}

TEST(QuantileHistogram, EmptySnapshotIsSane) {
  QuantileHistogram h;
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.p999(), 0.0);
}

TEST(QuantileHistogram, QuantilesWithinDocumentedRelativeError) {
  QuantileOptions opts;  // defaults: B = 16 => <= 6.25% relative error
  QuantileHistogram h(opts);
  Rng rng(20260807);
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~5 decades, the shape of real latency series.
    double v = std::exp(rng.Uniform(std::log(0.5), std::log(5e4)));
    values.push_back(v);
    h.Record(v);
  }
  auto snap = h.TakeSnapshot();
  ASSERT_EQ(snap.count, values.size());
  EXPECT_DOUBLE_EQ(snap.min, *std::min_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(snap.max, *std::max_element(values.begin(), values.end()));

  // Documented bound is 1/B on the bucket geometry; allow a bit of
  // slack for the interpolation against a finite sample.
  const double bound =
      1.0 / static_cast<double>(opts.buckets_per_octave) + 0.02;
  for (double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const double exact = ExactQuantile(values, q);
    const double approx = snap.Quantile(q);
    EXPECT_NEAR(approx, exact, bound * exact)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  // Quantile estimates are monotone in q and clamped to the extrema.
  EXPECT_LE(snap.Quantile(0.0), snap.p50());
  EXPECT_LE(snap.p50(), snap.p90());
  EXPECT_LE(snap.p90(), snap.p99());
  EXPECT_LE(snap.p99(), snap.p999());
  EXPECT_LE(snap.p999(), snap.max);
  EXPECT_GE(snap.Quantile(0.0), snap.min);
}

TEST(QuantileHistogram, CrossThreadRecordingIsExactAndDeterministic) {
  // Integer-valued observations recorded from more threads than
  // stripes: the aggregated snapshot must be exact (count, sum,
  // extrema) and identical to a serial recording of the same multiset,
  // regardless of which stripe each thread landed on.
  QuantileOptions opts;
  opts.min = 1.0;
  opts.max = 4096.0;
  QuantileHistogram striped(opts);
  QuantileHistogram serial(opts);
  constexpr int kThreads = 2 * QuantileHistogram::kStripes + 3;
  constexpr int kPerThread = 500;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&striped, t] {
      for (int i = 0; i < kPerThread; ++i) {
        striped.Record(static_cast<double>(1 + (t * kPerThread + i) % 1000));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      serial.Record(static_cast<double>(1 + (t * kPerThread + i) % 1000));
    }
  }

  auto got = striped.TakeSnapshot();
  auto want = serial.TakeSnapshot();
  EXPECT_EQ(got.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.sum, want.sum);  // integer-valued: no FP reorder
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.counts, want.counts);
}

TEST(QuantileHistogram, ResetClearsEverything) {
  QuantileHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  h.Reset();
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  for (uint64_t c : snap.counts) EXPECT_EQ(c, 0u);
  h.Record(7.0);
  EXPECT_EQ(h.TakeSnapshot().count, 1u);
}

TEST(QuantileHistogram, MergeAccumulatesShardSnapshots) {
  QuantileOptions opts;
  opts.min = 1.0;
  opts.max = 1024.0;
  QuantileHistogram a(opts);
  QuantileHistogram b(opts);
  QuantileHistogram combined(opts);
  for (int i = 1; i <= 200; ++i) {
    double v = static_cast<double>(i);
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  auto merged = a.TakeSnapshot();
  merged.Merge(b.TakeSnapshot());
  auto want = combined.TakeSnapshot();
  EXPECT_EQ(merged.count, want.count);
  EXPECT_EQ(merged.counts, want.counts);
  EXPECT_EQ(merged.min, want.min);
  EXPECT_EQ(merged.max, want.max);
  EXPECT_DOUBLE_EQ(merged.Quantile(0.5), want.Quantile(0.5));
}

TEST(QuantileHistogram, OverflowAndUnderflowLandInEdgeBuckets) {
  QuantileOptions opts;
  opts.min = 1.0;
  opts.max = 16.0;
  opts.buckets_per_octave = 2;
  QuantileHistogram h(opts);
  h.Record(0.01);   // underflow
  h.Record(2.0);    // interior
  h.Record(1e9);    // overflow
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.counts.front(), 1u);
  EXPECT_EQ(snap.counts.back(), 1u);
  EXPECT_EQ(snap.count, 3u);
  // The p999 walk ends in the overflow bucket; the estimate must stay
  // clamped to the exact observed maximum, not the bucket edge.
  EXPECT_LE(snap.p999(), snap.max);
  EXPECT_EQ(snap.max, 1e9);
}

TEST(Gauge, MaxKeepsHighWater) {
  Gauge g;
  g.Max(3.0);
  EXPECT_EQ(g.value(), 3.0);
  g.Max(1.5);  // lower: no effect
  EXPECT_EQ(g.value(), 3.0);
  g.Max(10.0);
  EXPECT_EQ(g.value(), 10.0);
}

TEST(Gauge, ConcurrentMaxConverges) {
  Gauge g;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 5000; ++i) {
        g.Max(static_cast<double>(t * 5000 + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), static_cast<double>(kThreads * 5000 - 1));
}

TEST(MetricsRegistry, QuantileInstrumentsAreStableAndExported) {
  auto& reg = MetricsRegistry::Global();
  reg.ResetAll();
  QuantileHistogram* a =
      reg.GetQuantile("test.quantile.series", DefaultLatencyQuantileOptions());
  QuantileHistogram* b =
      reg.GetQuantile("test.quantile.series", DefaultLatencyQuantileOptions());
  EXPECT_EQ(a, b);
  a->Record(5.0);
  EXPECT_EQ(reg.FindQuantile("test.quantile.series"), a);
  EXPECT_EQ(reg.FindQuantile("test.quantile.nonexistent"), nullptr);

  std::string text = reg.TextSnapshot();
  EXPECT_NE(text.find("test.quantile.series"), std::string::npos);
  EXPECT_NE(text.find("p999="), std::string::npos);

  // ResetAll zeroes but keeps the instrument (call sites cache
  // pointers).
  reg.ResetAll();
  EXPECT_EQ(a->TakeSnapshot().count, 0u);
  EXPECT_EQ(reg.FindQuantile("test.quantile.series"), a);
}

#ifndef PW_OBS_DISABLED
TEST(ObsMacros, QuantileRecordAndGaugeMax) {
  auto& reg = MetricsRegistry::Global();
  reg.ResetAll();
  for (int i = 1; i <= 4; ++i) {
    PW_OBS_QUANTILE_RECORD("test.macro.quantile_us",
                           static_cast<double>(i) * 10.0);
    PW_OBS_GAUGE_MAX("test.macro.high_water", static_cast<double>(i) * 10.0);
  }
  const QuantileHistogram* q = reg.FindQuantile("test.macro.quantile_us");
  ASSERT_NE(q, nullptr);
  auto snap = q->TakeSnapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.max, 40.0);
  const Gauge* g = reg.FindGauge("test.macro.high_water");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value(), 40.0);
}

TEST(ObsMacros, TraceScopeFeedsQuantileTwin) {
  auto& reg = MetricsRegistry::Global();
  reg.ResetAll();
  for (int i = 0; i < 3; ++i) {
    PW_TRACE_SCOPE("test.macro.twin_us");
  }
  // The like-named quantile histogram is the scope's one instrument:
  // every duration lands there, and no side gauge is registered.
  const QuantileHistogram* q = reg.FindQuantile("test.macro.twin_us");
  ASSERT_NE(q, nullptr);
  const QuantileHistogram::Snapshot snap = q->TakeSnapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_LE(snap.min, snap.p50());
  EXPECT_LE(snap.p50(), snap.max);
  EXPECT_EQ(reg.FindGauge("test.macro.twin_us.high_water"), nullptr);
}
#endif  // PW_OBS_DISABLED

}  // namespace
}  // namespace phasorwatch::obs
