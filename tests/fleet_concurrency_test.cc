// Exercises the FleetEngine threading contract (fleet.h) under load:
// one ingest thread submitting across shards while observer threads
// poll TenantRows/LatencySnapshot, hot model reloads land mid-stream,
// and snapshots are taken from the control thread while the shards
// drain. Run under -DPW_TSAN=ON this is the data-race gate for the
// fleet engine, the SPSC frame rings, and the TenantSession
// producer/observer split.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/spsc_queue.h"
#include "detect/detector.h"
#include "detect/fleet.h"
#include "eval/dataset.h"
#include "grid/ieee_cases.h"
#include "obs/metrics.h"
#include "sim/fault_injection.h"
#include "sim/pmu_network.h"

namespace phasorwatch::detect {
namespace {

class FleetConcurrencyTest : public ::testing::Test {
 protected:
  struct Shared {
    grid::Grid grid;
    sim::PmuNetwork network;
    std::unique_ptr<eval::Dataset> dataset;
    std::shared_ptr<OutageDetector> detector;
  };
  static Shared* shared_;

  static void SetUpTestSuite() {
    auto grid = grid::IeeeCase14();
    PW_CHECK(grid.ok());
    auto network = sim::PmuNetwork::Build(*grid, 3);
    PW_CHECK(network.ok());
    shared_ = new Shared{std::move(grid).value(), std::move(network).value(),
                         nullptr, nullptr};

    eval::DatasetOptions dopts;
    dopts.train_states = 12;
    dopts.train_samples_per_state = 6;
    dopts.test_states = 5;
    dopts.test_samples_per_state = 5;
    auto dataset = eval::BuildDataset(shared_->grid, dopts, 61);
    PW_CHECK(dataset.ok());
    shared_->dataset =
        std::make_unique<eval::Dataset>(std::move(dataset).value());

    TrainingData training;
    training.normal = &shared_->dataset->normal.train;
    for (const auto& c : shared_->dataset->outages) {
      training.case_lines.push_back(c.line);
      training.outage.push_back(&c.train);
    }
    auto det = OutageDetector::Train(shared_->grid, shared_->network,
                                     training, {});
    PW_CHECK(det.ok());
    shared_->detector =
        std::make_shared<OutageDetector>(std::move(det).value());
  }

  static void TearDownTestSuite() {
    delete shared_;
    shared_ = nullptr;
  }

  static sim::MeasurementFrame Frame(size_t t, uint64_t ts) {
    const auto& src = (t / 8) % 2 == 1 ? shared_->dataset->outages[0].test
                                       : shared_->dataset->normal.test;
    return sim::MeasurementFrame::FromDataSet(src, t % src.num_samples(), ts);
  }
};

FleetConcurrencyTest::Shared* FleetConcurrencyTest::shared_ = nullptr;

TEST_F(FleetConcurrencyTest, SpscQueueSingleProducerSingleConsumer) {
  SpscQueue<uint64_t> queue(16);
  constexpr uint64_t kCount = 5000;
  std::atomic<bool> order_broken{false};
  std::thread consumer([&] {
    uint64_t expected = 0;
    uint64_t out = 0;
    while (expected < kCount) {
      if (queue.TryPop(&out)) {
        if (out != expected) order_broken.store(true);
        ++expected;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (uint64_t v = 0; v < kCount; ++v) {
    uint64_t item = v;
    while (!queue.TryPush(std::move(item))) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_FALSE(order_broken.load());
}

TEST_F(FleetConcurrencyTest, MultiShardIngestWithConcurrentObservers) {
  constexpr size_t kTenants = 6;
  constexpr size_t kFramesPerTenant = 24;

  FleetOptions fopts;
  fopts.num_shards = 2;
  fopts.queue_capacity = 8;  // small ring: backpressure actually fires
  FleetEngine engine(fopts);
  std::vector<TenantId> ids;
  for (size_t k = 0; k < kTenants; ++k) {
    TenantConfig config;
    config.name = "grid-" + std::to_string(k);
    config.detector = shared_->detector;
    config.stream.alarm_after = 2;
    auto id = engine.AddTenant(std::move(config));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  engine.Start();

  // Single ingest thread (the Submit contract), retrying shed frames so
  // every frame eventually lands.
  std::atomic<bool> ingest_done{false};
  std::thread ingest([&] {
    uint64_t ts = 1000;
    for (size_t t = 0; t < kFramesPerTenant; ++t) {
      for (TenantId id : ids) {
        sim::MeasurementFrame frame = Frame(t, ts);
        for (;;) {
          Status status = engine.Submit(id, frame);
          if (status.ok()) break;
          PW_CHECK(status.code() == StatusCode::kResourceExhausted);
          std::this_thread::yield();
        }
      }
      ts += 1000;
    }
    ingest_done.store(true, std::memory_order_release);
  });

  // Observer: polls cross-thread views while the shards drain.
  std::thread observer([&] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      auto rows = engine.TenantRows();
      EXPECT_EQ(rows.size(), kTenants);
      (void)engine.LatencySnapshot();
      (void)engine.frames_shed();
      std::this_thread::yield();
    }
  });

  ingest.join();
  observer.join();
  engine.Flush();
  engine.Stop();

  for (TenantId id : ids) {
    EXPECT_EQ(engine.session(id).samples_processed(), kFramesPerTenant);
  }
  EXPECT_EQ(engine.frames_processed(), kTenants * kFramesPerTenant);
}

TEST_F(FleetConcurrencyTest, HotReloadUnderLoad) {
  // Ingest keeps frames flowing while another thread flips the tenant's
  // model between two instances; no frame may fail and every frame must
  // be counted. The swap happens under the session's model lock;
  // in-flight frames finish on the model they started with.
  std::stringstream buffer;
  ASSERT_TRUE(shared_->detector->Save(buffer).ok());
  auto clone = OutageDetector::Load(buffer, shared_->grid, shared_->network);
  ASSERT_TRUE(clone.ok());
  auto alternate = std::make_shared<OutageDetector>(std::move(clone).value());

  FleetOptions fopts;
  fopts.num_shards = 1;
  FleetEngine engine(fopts);
  TenantConfig config;
  config.name = "reloaded";
  config.detector = shared_->detector;
  auto tenant = engine.AddTenant(std::move(config));
  ASSERT_TRUE(tenant.ok());
  engine.Start();

  constexpr size_t kFrames = 60;
  std::atomic<bool> ingest_done{false};
  std::thread ingest([&] {
    uint64_t ts = 1000;
    for (size_t t = 0; t < kFrames; ++t, ts += 1000) {
      sim::MeasurementFrame frame = Frame(t, ts);
      for (;;) {
        Status status = engine.Submit(*tenant, frame);
        if (status.ok()) break;
        PW_CHECK(status.code() == StatusCode::kResourceExhausted);
        std::this_thread::yield();
      }
    }
    ingest_done.store(true, std::memory_order_release);
  });

  std::thread reloader([&] {
    bool use_alternate = true;
    while (!ingest_done.load(std::memory_order_acquire)) {
      auto model = use_alternate
                       ? alternate
                       : std::shared_ptr<OutageDetector>(shared_->detector);
      PW_CHECK(engine.ReloadModel(*tenant, std::move(model)).ok());
      use_alternate = !use_alternate;
      std::this_thread::yield();
    }
  });

  ingest.join();
  reloader.join();
  engine.Flush();
  engine.Stop();
  EXPECT_EQ(engine.session(*tenant).samples_processed(), kFrames);
  EXPECT_EQ(engine.session(*tenant).counters().samples_rejected.load(), 0u);
}

TEST_F(FleetConcurrencyTest, SnapshotWhileShardsDrain) {
  // SnapshotTenant runs on the owning shard's drain thread between
  // frames, so taking one mid-stream must neither race nor tear: its
  // sample index always matches the per-tenant counter sum at that
  // point.
  FleetOptions fopts;
  fopts.num_shards = 2;
  FleetEngine engine(fopts);
  std::vector<TenantId> ids;
  for (size_t k = 0; k < 2; ++k) {
    TenantConfig config;
    config.name = "snap-" + std::to_string(k);
    config.detector = shared_->detector;
    auto id = engine.AddTenant(std::move(config));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  engine.Start();

  constexpr size_t kFrames = 30;
  std::atomic<bool> ingest_done{false};
  std::thread ingest([&] {
    uint64_t ts = 1000;
    for (size_t t = 0; t < kFrames; ++t, ts += 1000) {
      for (TenantId id : ids) {
        sim::MeasurementFrame frame = Frame(t, ts);
        for (;;) {
          Status status = engine.Submit(id, frame);
          if (status.ok()) break;
          std::this_thread::yield();
        }
      }
    }
    ingest_done.store(true, std::memory_order_release);
  });

  // Control thread snapshots both tenants while frames drain.
  std::thread snapshotter([&] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      for (TenantId id : ids) {
        auto snapshot = engine.SnapshotTenant(id);
        PW_CHECK(snapshot.ok());
        EXPECT_EQ(snapshot->next_sample_index,
                  snapshot->samples + snapshot->samples_rejected);
        EXPECT_LE(snapshot->next_sample_index, kFrames);
      }
      std::this_thread::yield();
    }
  });

  ingest.join();
  snapshotter.join();
  engine.Flush();
  engine.Stop();
  for (TenantId id : ids) {
    EXPECT_EQ(engine.session(id).samples_processed(), kFrames);
  }
}

TEST_F(FleetConcurrencyTest, BurstsAfterIdleGapsAreNeverLost) {
  // Bursts of 1-3 frames separated by seeded 0-2 ms gaps: most gaps
  // outlast the drain loops' spin phase, so shards park between bursts
  // and every burst has to wake one. A lost wake-up strands a frame on
  // a parked shard's ring, so the Flush() after that burst never
  // returns and the ctest TIMEOUT (tests/CMakeLists.txt) fails the test
  // instead of hanging the suite.
  constexpr size_t kTenants = 6;
  constexpr size_t kBursts = 300;
  FleetOptions fopts;
  fopts.num_shards = 3;
  FleetEngine engine(fopts);
  std::vector<TenantId> ids;
  for (size_t k = 0; k < kTenants; ++k) {
    TenantConfig config;
    config.name = "burst-" + std::to_string(k);
    config.detector = shared_->detector;
    auto id = engine.AddTenant(std::move(config));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  obs::Counter* wakeups =
      obs::MetricsRegistry::Global().GetCounter("fleet.shard_wakeups");
  const uint64_t wakeups_before = wakeups->value();
  engine.Start();

  Rng rng(20170417);
  uint64_t ts = 1000;
  uint64_t accepted = 0;
  for (size_t burst = 0; burst < kBursts; ++burst, ts += 1000) {
    const size_t frames = 1 + rng.UniformInt(3);
    for (size_t f = 0; f < frames; ++f) {
      // Timestamps rise within and across bursts, so no tenant ever
      // sees a stale frame.
      const TenantId id = ids[rng.UniformInt(kTenants)];
      ASSERT_TRUE(engine.Submit(id, Frame(burst, ts + f)).ok());
      ++accepted;
    }
    engine.Flush();
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.UniformInt(2001)));
  }
  engine.Stop();
  EXPECT_EQ(engine.frames_processed(), accepted);
  EXPECT_EQ(engine.frames_submitted(), accepted);
#ifndef PW_OBS_DISABLED
  // The gaps did make shards park (otherwise this test proves nothing).
  EXPECT_GT(wakeups->value() - wakeups_before, 0u);
#else
  static_cast<void>(wakeups_before);
#endif
}

}  // namespace
}  // namespace phasorwatch::detect
