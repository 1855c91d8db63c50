// Chaos layer for the hardened detector (docs/ROBUSTNESS.md): gross
// bad data, NaN/Inf, and transport pathologies must be screened or
// rejected via Status — never silently mislocalized, never a crash.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "detect/detector.h"
#include "detect/session.h"
#include "grid/ieee_cases.h"
#include "obs/metrics.h"
#include "sim/fault_injection.h"

namespace phasorwatch::detect {
namespace {

// Shared fixture: one IEEE-14 corpus and the detector trained on it.
class ChaosDetectorTest : public ::testing::Test {
 protected:
  struct Shared {
    grid::Grid grid;
    sim::PmuNetwork network;
    sim::PhasorDataSet normal_test;
    std::vector<grid::LineId> lines;
    std::vector<sim::PhasorDataSet> outage_test;
    std::shared_ptr<OutageDetector> detector;
  };

  static Shared* shared_;

  static void SetUpTestSuite() {
    auto grid = grid::IeeeCase14();
    PW_CHECK(grid.ok());
    auto network = sim::PmuNetwork::Build(*grid, 3);
    PW_CHECK(network.ok());

    sim::SimulationOptions sim_opts;
    sim_opts.load.num_states = 16;
    sim_opts.samples_per_state = 8;

    Rng rng(2024);
    auto normal_train = sim::SimulateMeasurements(*grid, sim_opts, rng);
    PW_CHECK(normal_train.ok());
    auto normal_test = sim::SimulateMeasurements(*grid, sim_opts, rng);
    PW_CHECK(normal_test.ok());

    shared_ = new Shared{std::move(grid).value(), std::move(network).value(),
                         std::move(normal_test).value(), {},      {},
                         nullptr};

    std::vector<sim::PhasorDataSet> outage_train;
    size_t taken = 0;
    for (const grid::LineId& line : shared_->grid.lines()) {
      if (taken >= 4) break;
      auto outage_grid = shared_->grid.WithLineOut(line);
      if (!outage_grid.ok()) continue;
      Rng train_rng = rng.Fork();
      Rng test_rng = rng.Fork();
      auto train = sim::SimulateMeasurements(*outage_grid, sim_opts, train_rng);
      auto test = sim::SimulateMeasurements(*outage_grid, sim_opts, test_rng);
      if (!train.ok() || !test.ok()) continue;
      shared_->lines.push_back(line);
      outage_train.push_back(std::move(train).value());
      shared_->outage_test.push_back(std::move(test).value());
      ++taken;
    }
    PW_CHECK_GE(shared_->lines.size(), 3u);

    TrainingData data;
    data.normal = &normal_train.value();
    data.case_lines = shared_->lines;
    for (const auto& block : outage_train) data.outage.push_back(&block);

    auto trained = OutageDetector::Train(shared_->grid, shared_->network,
                                         data, DetectorOptions{});
    PW_CHECK_MSG(trained.ok(), trained.status().ToString().c_str());
    shared_->detector =
        std::make_shared<OutageDetector>(std::move(trained).value());
  }

  static void TearDownTestSuite() {
    delete shared_;
    shared_ = nullptr;
  }

  static bool Tolerable(const Status& status) {
    return status.code() == StatusCode::kInvalidArgument ||
           status.code() == StatusCode::kDataMissing;
  }
};

ChaosDetectorTest::Shared* ChaosDetectorTest::shared_ = nullptr;

TEST_F(ChaosDetectorTest, GrossSpikeScreensLikeMaskingTheNode) {
  const size_t node = 5;
  for (size_t t = 0; t < 10; ++t) {
    auto [vm, va] = shared_->outage_test[0].Sample(t);
    auto masked_ref = sim::MissingMask::None(shared_->grid.num_buses());
    masked_ref.missing[node] = true;
    auto expected = shared_->detector->Detect(vm, va, masked_ref);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(expected->screened_nodes, 0u);

    // A unit-scale gross error (way outside any operating envelope).
    vm[node] += 5.0;
    va[node] -= 3.0;
    auto screened = shared_->detector->Detect(vm, va);
    ASSERT_TRUE(screened.ok());
    // The spiked node is demoted to "unavailable", after which detection
    // is exactly the masked detection — same groups, same scores.
    EXPECT_EQ(screened->screened_nodes, 1u);
    EXPECT_EQ(screened->outage_detected, expected->outage_detected);
    EXPECT_EQ(screened->decision_score, expected->decision_score);
    EXPECT_EQ(screened->lines, expected->lines);
    EXPECT_EQ(screened->affected_nodes, expected->affected_nodes);
  }
}

TEST_F(ChaosDetectorTest, CleanDataIsUntouchedByScreening) {
  // On clean data the screen is a no-op: genuine outage physics sits
  // below kScreenThreshold, nothing is demoted, and the result is
  // exactly the one detection under the caller's own (empty) mask
  // gives, so the figure pipelines are unchanged by the screen.
  const size_t n = shared_->grid.num_buses();
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    for (size_t t = 0; t < 5; ++t) {
      auto [vm, va] = shared_->outage_test[c].Sample(t);
      auto screened = shared_->detector->Detect(vm, va);
      auto explicit_mask =
          shared_->detector->Detect(vm, va, sim::MissingMask::None(n));
      ASSERT_TRUE(screened.ok());
      ASSERT_TRUE(explicit_mask.ok());
      EXPECT_EQ(screened->screened_nodes, 0u);
      EXPECT_EQ(screened->outage_detected, explicit_mask->outage_detected);
      EXPECT_EQ(screened->decision_score, explicit_mask->decision_score);
      EXPECT_EQ(screened->lines, explicit_mask->lines);
      EXPECT_EQ(screened->affected_nodes, explicit_mask->affected_nodes);
    }
  }
}

TEST_F(ChaosDetectorTest, NonFiniteIsScreenedWhenEnabled) {
  auto [vm, va] = shared_->normal_test.Sample(0);
  vm[2] = std::nan("");
  va[7] = std::numeric_limits<double>::infinity();
  auto result = shared_->detector->Detect(vm, va);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->screened_nodes, 2u);
  EXPECT_TRUE(std::isfinite(result->decision_score));
  for (size_t i = 0; i < result->node_scores.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result->node_scores[i]));
  }
}

TEST_F(ChaosDetectorTest, InterleavedScreeningMatchesExplicitMasks) {
  // Clean and spiked samples interleave (the same node twice in a row,
  // then a different one), so consecutive calls alternate between equal
  // and different effective (post-screen) masks. Each screened result
  // must equal a detection with that node masked explicitly, computed
  // in a separate pass: no selection state may carry across calls.
  const size_t num = shared_->grid.num_buses();
  std::vector<linalg::Vector> vms, vas;
  std::vector<sim::MissingMask> explicit_masks;
  for (size_t t = 0; t < 6; ++t) {
    auto [vm, va] = shared_->outage_test[1].Sample(t);
    sim::MissingMask mask = sim::MissingMask::None(num);
    if (t == 1 || t == 2) {  // same node twice in a row
      vm[4] += 5.0;
      mask.missing[4] = true;
    }
    if (t == 4) {
      va[9] += 4.0;
      mask.missing[9] = true;
    }
    vms.push_back(std::move(vm));
    vas.push_back(std::move(va));
    explicit_masks.push_back(std::move(mask));
  }
  std::vector<DetectionResult> expected;
  for (size_t t = 0; t < vms.size(); ++t) {
    auto masked = shared_->detector->Detect(vms[t], vas[t], explicit_masks[t]);
    ASSERT_TRUE(masked.ok());
    expected.push_back(std::move(masked).value());
  }
  for (size_t t = 0; t < vms.size(); ++t) {
    auto screened = shared_->detector->Detect(vms[t], vas[t]);
    ASSERT_TRUE(screened.ok());
    const size_t demoted = explicit_masks[t].count();
    EXPECT_EQ(screened->screened_nodes, demoted);
    EXPECT_EQ(expected[t].screened_nodes, 0u);
    EXPECT_EQ(screened->outage_detected, expected[t].outage_detected);
    EXPECT_EQ(screened->decision_score, expected[t].decision_score);
    EXPECT_EQ(screened->lines, expected[t].lines);
  }
}

TEST_F(ChaosDetectorTest, SeededChaosReplayNeverAborts) {
  // A kitchen-sink schedule over one outage block: every sample must
  // either produce a fully finite detection or fail with a tolerable
  // Status — never crash, never leak a NaN into scores.
  const size_t num = shared_->grid.num_buses();
  const size_t samples = 24;
  sim::FaultScheduleOptions fopts;
  fopts.gross_errors = 3;
  fopts.frozen_channels = 2;
  fopts.non_finite = 2;
  fopts.dropped_frames = 1;
  auto schedule = sim::MakeRandomFaultSchedule(fopts, num, samples, 77);
  ASSERT_TRUE(schedule.ok());
  auto injector = sim::FaultInjector::Create(*schedule, num, samples, 78);
  ASSERT_TRUE(injector.ok());

  sim::PhasorDataSet block;
  block.vm = linalg::Matrix(num, samples);
  block.va = linalg::Matrix(num, samples);
  for (size_t i = 0; i < num; ++i) {
    for (size_t t = 0; t < samples; ++t) {
      block.vm(i, t) = shared_->outage_test[2].vm(i, t);
      block.va(i, t) = shared_->outage_test[2].va(i, t);
    }
  }
  const uint64_t injected_before =
      obs::MetricsRegistry::Global().GetCounter("faults.injected")->value();
  const uint64_t screened_before =
      obs::MetricsRegistry::Global().GetCounter("faults.screened")->value();

  std::vector<sim::MissingMask> masks;
  ASSERT_TRUE(injector->ApplyToDataSet(&block, &masks).ok());

  uint64_t screened_total = 0;
  for (size_t t = 0; t < samples; ++t) {
    auto [vm, va] = block.Sample(t);
    auto result = shared_->detector->Detect(vm, va, masks[t]);
    if (!result.ok()) {
      EXPECT_TRUE(Tolerable(result.status())) << result.status().ToString();
      continue;
    }
    screened_total += result->screened_nodes;
    EXPECT_TRUE(std::isfinite(result->decision_score));
    for (size_t i = 0; i < result->node_scores.size(); ++i) {
      EXPECT_TRUE(std::isfinite(result->node_scores[i]));
    }
  }

#ifndef PW_OBS_DISABLED
  // Counter reconciliation: injections against the schedule, screen
  // demotions against the per-result tallies.
  const uint64_t injected_after =
      obs::MetricsRegistry::Global().GetCounter("faults.injected")->value();
  const uint64_t screened_after =
      obs::MetricsRegistry::Global().GetCounter("faults.screened")->value();
  EXPECT_EQ(injected_after - injected_before, injector->stats().injected);
  EXPECT_EQ(screened_after - screened_before, screened_total);
#else
  static_cast<void>(injected_before);
  static_cast<void>(screened_before);
#endif
  EXPECT_EQ(injector->stats().injected,
            schedule->ExpectedApplications(samples));
}

TEST_F(ChaosDetectorTest, StreamRejectsDroppedAndStaleFrames) {
  TenantSession monitor(shared_->detector, StreamOptions{});

  auto fresh = sim::MeasurementFrame::FromDataSet(shared_->normal_test, 0,
                                                  /*timestamp_us=*/1000);
  auto first = monitor.ProcessFrame(fresh);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->sample_rejected);

  auto dropped = sim::MeasurementFrame::FromDataSet(shared_->normal_test, 1,
                                                    /*timestamp_us=*/2000);
  dropped.dropped = true;
  auto event = monitor.ProcessFrame(dropped);
  ASSERT_TRUE(event.ok());
  EXPECT_TRUE(event->sample_rejected);
  EXPECT_FALSE(event->alarm_active);

  // A replayed timetag (not past the last accepted frame) is stale.
  auto stale = sim::MeasurementFrame::FromDataSet(shared_->normal_test, 2,
                                                  /*timestamp_us=*/1000);
  event = monitor.ProcessFrame(stale);
  ASSERT_TRUE(event.ok());
  EXPECT_TRUE(event->sample_rejected);

  // Rejected frames still consume sample indices (the stream advanced).
  EXPECT_EQ(monitor.samples_processed(), 3u);

  auto next = sim::MeasurementFrame::FromDataSet(shared_->normal_test, 3,
                                                 /*timestamp_us=*/3000);
  event = monitor.ProcessFrame(next);
  ASSERT_TRUE(event.ok());
  EXPECT_FALSE(event->sample_rejected);
  EXPECT_EQ(monitor.samples_processed(), 4u);

  // Reset clears the timestamp watermark with the rest of the state.
  monitor.Reset();
  auto replay = sim::MeasurementFrame::FromDataSet(shared_->normal_test, 4,
                                                   /*timestamp_us=*/500);
  event = monitor.ProcessFrame(replay);
  ASSERT_TRUE(event.ok());
  EXPECT_FALSE(event->sample_rejected);
}

TEST_F(ChaosDetectorTest, StreamToleratesDetectorRejections) {
  // The detector rejects a sample of the wrong size (InvalidArgument)
  // and one with every node masked (DataMissing); the monitor turns
  // both into sample_rejected events instead of propagating the error,
  // and the debouncing state does not advance.
  const size_t n = shared_->grid.num_buses();
  TenantSession monitor(shared_->detector, StreamOptions{});
  auto [vm, va] = shared_->normal_test.Sample(0);
  sim::MissingMask all_missing;
  all_missing.missing.assign(n, true);
  ASSERT_EQ(shared_->detector->Detect(vm, va, all_missing).status().code(),
            StatusCode::kDataMissing);

  auto starved = monitor.Process(vm, va, all_missing);
  ASSERT_TRUE(starved.ok());
  EXPECT_TRUE(starved->sample_rejected);

  linalg::Vector short_vm(n - 1), short_va(n - 1);
  auto malformed = monitor.Process(short_vm, short_va,
                                   sim::MissingMask::None(n - 1));
  ASSERT_TRUE(malformed.ok());
  EXPECT_TRUE(malformed->sample_rejected);

  EXPECT_EQ(monitor.samples_processed(), 2u);
  EXPECT_EQ(monitor.counters().samples_rejected.load(), 2u);
  EXPECT_EQ(monitor.counters().samples.load(), 0u);
}

}  // namespace
}  // namespace phasorwatch::detect
