// Tests for the metrics registry: instrument semantics, snapshot
// exporters, thread safety, and the macro layer.

#include "obs/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace phasorwatch::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, GetReturnsStableInstruments) {
  auto& reg = MetricsRegistry::Global();
  reg.ResetAll();
  Counter* a = reg.GetCounter("test.registry.counter");
  Counter* b = reg.GetCounter("test.registry.counter");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(reg.FindCounter("test.registry.counter"), a);
  EXPECT_EQ(reg.FindCounter("test.registry.nonexistent"), nullptr);

  Gauge* g = reg.GetGauge("test.registry.gauge");
  g->Set(1.25);
  EXPECT_EQ(reg.FindGauge("test.registry.gauge"), g);

  QuantileHistogram* q = reg.GetQuantile("test.registry.quantile",
                                         DefaultLatencyQuantileOptions());
  q->Record(3);
  EXPECT_EQ(reg.FindQuantile("test.registry.quantile"), q);

  // ResetAll zeroes values but keeps the instruments alive (macro call
  // sites cache raw pointers).
  reg.ResetAll();
  EXPECT_EQ(a->value(), 0u);
  EXPECT_EQ(g->value(), 0.0);
  EXPECT_EQ(q->TakeSnapshot().count, 0u);
  EXPECT_EQ(reg.FindCounter("test.registry.counter"), a);
}

TEST(MetricsRegistry, TextSnapshotListsInstruments) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("test.snapshot.counter")->Increment(7);
  reg.GetGauge("test.snapshot.gauge")->Set(0.5);
  reg.GetQuantile("test.snapshot.quantile", DefaultLatencyQuantileOptions())
      ->Record(2.0);
  std::string text = reg.TextSnapshot();
  EXPECT_NE(text.find("test.snapshot.counter"), std::string::npos);
  EXPECT_NE(text.find("test.snapshot.gauge"), std::string::npos);
  EXPECT_NE(text.find("quantile  test.snapshot.quantile"), std::string::npos);
  EXPECT_EQ(text.find("histogram "), std::string::npos);
}

// The registry's machine-readable export is the run report.
TEST(RunReportBuilder, JsonIsValidJson) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("test.json.counter")->Increment();
  reg.GetGauge("test.json.gauge")->Set(-3.5);
  reg.GetQuantile("test.json.quantile", DefaultLatencyQuantileOptions())
      ->Record(5.0);
  std::string json = RunReportBuilder("obs_metrics_test").Json();
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
  auto counters = JsonObjectField(json, "counters");
  ASSERT_TRUE(counters.ok());
  EXPECT_NE(counters->find("test.json.counter"), std::string::npos);
  auto quantiles = JsonObjectField(json, "quantiles");
  ASSERT_TRUE(quantiles.ok());
  EXPECT_NE(quantiles->find("test.json.quantile"), std::string::npos);
  EXPECT_FALSE(JsonObjectField(json, "histograms").ok());
}

TEST(TraceRing, RecordsAndWraps) {
  TraceRing ring(4);
  for (int i = 0; i < 6; ++i) {
    ring.Record(TraceSpan{"span", static_cast<double>(i), 1.0});
  }
  auto spans = ring.Dump();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first: entries 2..5 survive.
  EXPECT_EQ(spans.front().start_us, 2.0);
  EXPECT_EQ(spans.back().start_us, 5.0);
  EXPECT_EQ(ring.total_recorded(), 6u);
  ring.Clear();
  EXPECT_TRUE(ring.Dump().empty());
}

TEST(ScopedTimer, RecordsIntoHistogram) {
  QuantileHistogram q;
  {
    ScopedTimer timer(&q, "test.scoped");
  }
  auto snap = q.TakeSnapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.max, 0.0);
}

#ifndef PW_OBS_DISABLED
TEST(ObsMacros, CounterAndTraceScopeRecord) {
  auto& reg = MetricsRegistry::Global();
  reg.ResetAll();
  for (int i = 0; i < 3; ++i) {
    PW_OBS_COUNTER_INC("test.macro.counter");
    PW_TRACE_SCOPE("test.macro.span_us");
  }
  PW_OBS_GAUGE_SET("test.macro.gauge", 9.0);
  const Counter* c = reg.FindCounter("test.macro.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 3u);
  const Gauge* g = reg.FindGauge("test.macro.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value(), 9.0);
  const QuantileHistogram* q = reg.FindQuantile("test.macro.span_us");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->TakeSnapshot().count, 3u);
}
#endif  // PW_OBS_DISABLED

}  // namespace
}  // namespace phasorwatch::obs
