// Exercises the TenantSession thread-safety contract (session.h): one
// producer thread feeds samples while observer threads poll
// alarm_active(), samples_processed(), and the metrics registry. Run
// under -DPW_TSAN=ON this doubles as the data-race gate for the
// session, the detector's Detect() path, and the ProximityEngine cache.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "detect/detector.h"
#include "detect/session.h"
#include "eval/dataset.h"
#include "grid/ieee_cases.h"
#include "obs/metrics.h"
#include "sim/missing_data.h"
#include "sim/pmu_network.h"

namespace phasorwatch::detect {
namespace {

class StreamConcurrencyTest : public ::testing::Test {
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
};

StreamConcurrencyTest::Shared* StreamConcurrencyTest::shared_ = nullptr;

TEST_F(StreamConcurrencyTest, ObserversPollWhileProducerFeeds) {
  constexpr uint64_t kSamples = 120;
  StreamOptions opts;
  opts.alarm_after = 2;
  opts.clear_after = 2;
  TenantSession monitor(shared_->detector, opts);

  std::atomic<bool> producer_failed{false};
  std::thread producer([&] {
    const auto& normal = shared_->dataset->normal.test;
    const auto& outage = shared_->dataset->outages[0];
    for (uint64_t t = 0; t < kSamples; ++t) {
      // Alternate bursts of outage and normal samples so the alarm flag
      // actually toggles while observers read it.
      bool feed_outage = (t / 10) % 2 == 1;
      const auto& src = feed_outage ? outage.test : normal;
      auto [vm, va] = src.Sample(t % src.num_samples());
      if (!monitor.Process(vm, va).ok()) {
        producer_failed.store(true);
        return;
      }
    }
  });

  // Observer threads: poll the atomic accessors until the producer is
  // done, checking the monotonicity of samples_processed().
  std::atomic<bool> observer_failed{false};
  auto observe = [&] {
    uint64_t last = 0;
    bool saw_alarm = false;
    while (last < kSamples) {
      uint64_t now = monitor.samples_processed();
      if (now < last) {
        observer_failed.store(true);
        return;
      }
      last = now;
      saw_alarm = saw_alarm || monitor.alarm_active();
      std::this_thread::yield();
      if (producer_failed.load()) return;
    }
    (void)saw_alarm;  // may legitimately be false on a fast producer
  };
  std::thread obs1(observe);
  std::thread obs2(observe);

  producer.join();
  obs1.join();
  obs2.join();

  ASSERT_FALSE(producer_failed.load());
  ASSERT_FALSE(observer_failed.load());
  EXPECT_EQ(monitor.samples_processed(), kSamples);
}

TEST_F(StreamConcurrencyTest, MetricsReadableWhileProducerFeeds) {
  constexpr uint64_t kSamples = 60;
  TenantSession monitor(shared_->detector, {});

  std::thread producer([&] {
    const auto& normal = shared_->dataset->normal.test;
    for (uint64_t t = 0; t < kSamples; ++t) {
      auto [vm, va] = normal.Sample(t % normal.num_samples());
      PW_CHECK(monitor.Process(vm, va).ok());
    }
  });

  // Scrape the global registry concurrently (the exporter-thread
  // pattern): snapshots must be self-consistent and data-race free.
  std::thread scraper([&] {
    for (int i = 0; i < 20 && monitor.samples_processed() < kSamples; ++i) {
      std::string text = obs::MetricsRegistry::Global().TextSnapshot();
      EXPECT_FALSE(text.empty());
      std::this_thread::yield();
    }
  });

  producer.join();
  scraper.join();
  EXPECT_EQ(monitor.samples_processed(), kSamples);

#ifndef PW_OBS_DISABLED
  const obs::Counter* samples =
      obs::MetricsRegistry::Global().FindCounter("stream.samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_GE(samples->value(), kSamples);
#endif
}

TEST_F(StreamConcurrencyTest, ConcurrentDetectorsShareProximityCache) {
  // Two sessions on the *same* trained detector, fed from two threads:
  // Detect() is documented concurrent-safe (the ProximityEngine cache
  // synchronizes internally). Masks force proximity evaluations.
  constexpr uint64_t kSamples = 40;
  TenantSession m1(shared_->detector, {});
  TenantSession m2(shared_->detector, {});
  sim::MissingMask mask = sim::MissingAtOutage(
      shared_->grid.num_buses(), shared_->dataset->outages[0].line);

  auto feed = [&](TenantSession& monitor, const sim::PhasorDataSet& src,
                  const sim::MissingMask& m) {
    for (uint64_t t = 0; t < kSamples; ++t) {
      auto [vm, va] = src.Sample(t % src.num_samples());
      PW_CHECK(monitor.Process(vm, va, m).ok());
    }
  };
  std::thread t1([&] { feed(m1, shared_->dataset->outages[0].test, mask); });
  std::thread t2([&] {
    feed(m2, shared_->dataset->normal.test,
         sim::MissingMask::None(shared_->grid.num_buses()));
  });
  t1.join();
  t2.join();
  EXPECT_EQ(m1.samples_processed(), kSamples);
  EXPECT_EQ(m2.samples_processed(), kSamples);
}

}  // namespace
}  // namespace phasorwatch::detect
