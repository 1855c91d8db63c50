#include "common/workspace.h"

#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace phasorwatch {
namespace {

TEST(WorkspaceTest, AllocReturnsZeroedMemory) {
  Workspace ws;
  double* p = ws.Alloc(16);
  ASSERT_NE(p, nullptr);
  for (size_t i = 0; i < 16; ++i) EXPECT_EQ(p[i], 0.0);
  EXPECT_EQ(ws.used(), 16u);
}

TEST(WorkspaceTest, FrameRewindsAndReusesTheSameMemory) {
  Workspace ws;
  double* first = nullptr;
  {
    Workspace::Frame frame(ws);
    first = ws.Alloc(32);
    first[0] = 42.0;
  }
  EXPECT_EQ(ws.used(), 0u);
  double* second = nullptr;
  {
    Workspace::Frame frame(ws);
    second = ws.Alloc(32);
    // Same storage handed out again — this is what makes a warmed hot
    // path allocation-free — and it arrives re-zeroed.
    EXPECT_EQ(second, first);
    EXPECT_EQ(second[0], 0.0);
  }
}

TEST(WorkspaceTest, FramesNest) {
  Workspace ws;
  Workspace::Frame outer(ws);
  double* a = ws.Alloc(8);
  {
    Workspace::Frame inner(ws);
    double* b = ws.Alloc(8);
    EXPECT_NE(a, b);
    EXPECT_EQ(ws.used(), 16u);
  }
  EXPECT_EQ(ws.used(), 8u);
  // The inner frame's slot is handed out again.
  double* c = ws.Alloc(8);
  EXPECT_EQ(ws.used(), 16u);
  ASSERT_NE(c, nullptr);
}

TEST(WorkspaceTest, ReuseIsDeterministic) {
  // Two passes of the same allocation pattern across a Frame boundary
  // see identical addresses — pointer-stable reuse, so any computation
  // over workspace memory is bit-identical pass to pass.
  Workspace ws;
  std::vector<double*> pass1, pass2;
  {
    Workspace::Frame frame(ws);
    for (size_t n : {8, 24, 4}) pass1.push_back(ws.Alloc(n));
  }
  {
    Workspace::Frame frame(ws);
    for (size_t n : {8, 24, 4}) pass2.push_back(ws.Alloc(n));
  }
  EXPECT_EQ(pass1, pass2);
}

TEST(WorkspaceTest, ResetCoalescesChunksAndStopsGrowing) {
  Workspace ws;
  // Force multiple chunks by allocating more than the initial chunk.
  for (int i = 0; i < 8; ++i) ws.Alloc(4096);
  size_t warm_capacity = ws.capacity_bytes();
  ws.Reset();
  EXPECT_EQ(ws.used(), 0u);
  EXPECT_GE(ws.capacity_bytes(), warm_capacity);
  // Steady state: the same workload fits the coalesced arena without
  // any further growth.
  size_t steady_capacity = ws.capacity_bytes();
  for (int pass = 0; pass < 3; ++pass) {
    Workspace::Frame frame(ws);
    for (int i = 0; i < 8; ++i) ws.Alloc(4096);
    EXPECT_EQ(ws.capacity_bytes(), steady_capacity);
  }
}

TEST(WorkspaceTest, ResetBumpsEpoch) {
  Workspace ws;
  uint64_t before = ws.epoch();
  ws.Reset();
  EXPECT_EQ(ws.epoch(), before + 1);
}

TEST(WorkspaceTest, SpanReadsAndWritesThroughArena) {
  Workspace ws;
  WorkspaceSpan span = AllocSpan(ws, 4);
  EXPECT_EQ(span.size(), 4u);
  span[2] = 7.5;
  EXPECT_EQ(span[2], 7.5);
  EXPECT_EQ(span.data()[2], 7.5);
}

TEST(WorkspaceTest, PerThreadReturnsTheSameInstance) {
  Workspace& a = Workspace::PerThread();
  Workspace& b = Workspace::PerThread();
  EXPECT_EQ(&a, &b);
}

#ifndef PW_OBS_DISABLED
TEST(WorkspaceTest, HighWaterGaugeRepublishesAfterRegistryReset) {
  auto& reg = obs::MetricsRegistry::Global();
  {
    Workspace big;
    big.Alloc(4096);
    big.Alloc(4096);  // second chunk
  }
  reg.ResetAll();
  // A fresh one-chunk arena is smaller than the footprint seen before
  // the reset; the gauge must still report it rather than stay at 0.
  Workspace small;
  small.Alloc(16);
  const obs::Gauge* gauge = reg.FindGauge("workspace.bytes_high_water");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value(), static_cast<double>(small.capacity_bytes()));
}
#endif  // PW_OBS_DISABLED

TEST(WorkspaceDeathTest, StaleSpanAbortsAfterReset) {
  Workspace ws;
  WorkspaceSpan span = AllocSpan(ws, 4);
  ws.Reset();
  // The arena recycled the span's memory; touching it must abort
  // instead of silently reading stale scratch.
  EXPECT_DEATH(span[0] = 1.0, "PW_CHECK failed");
  EXPECT_DEATH((void)span.data(), "PW_CHECK failed");
}

TEST(WorkspaceDeathTest, SpanBoundsChecked) {
  Workspace ws;
  WorkspaceSpan span = AllocSpan(ws, 2);
  EXPECT_DEATH(span[2] = 1.0, "PW_CHECK failed");
}

}  // namespace
}  // namespace phasorwatch
