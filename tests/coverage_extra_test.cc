// Assorted coverage: detector behavior registered through save/load and
// streaming together, and simulator edge cases not covered by the
// per-module suites.

#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "detect/detector.h"
#include "detect/session.h"
#include "eval/dataset.h"
#include "eval/experiments.h"
#include "grid/ieee_cases.h"
#include "sim/missing_data.h"

namespace phasorwatch {
namespace {

class CoverageExtraTest : public ::testing::Test {
 protected:
  struct Shared {
    grid::Grid grid;
    sim::PmuNetwork network;
    std::unique_ptr<eval::Dataset> dataset;
  };
  static Shared* shared_;

  static void SetUpTestSuite() {
    auto grid = grid::IeeeCase14();
    PW_CHECK(grid.ok());
    auto network = sim::PmuNetwork::Build(*grid, 3);
    PW_CHECK(network.ok());
    shared_ = new Shared{std::move(grid).value(), std::move(network).value(),
                         nullptr};
    eval::DatasetOptions dopts;
    dopts.train_states = 14;
    dopts.train_samples_per_state = 8;
    dopts.test_states = 5;
    dopts.test_samples_per_state = 5;
    auto dataset = eval::BuildDataset(shared_->grid, dopts, 31415);
    PW_CHECK(dataset.ok());
    shared_->dataset =
        std::make_unique<eval::Dataset>(std::move(dataset).value());
  }

  static void TearDownTestSuite() {
    delete shared_;
    shared_ = nullptr;
  }

  static detect::OutageDetector TrainWith(detect::DetectorOptions opts) {
    detect::TrainingData training;
    training.normal = &shared_->dataset->normal.train;
    for (const auto& c : shared_->dataset->outages) {
      training.case_lines.push_back(c.line);
      training.outage.push_back(&c.train);
    }
    auto det = detect::OutageDetector::Train(shared_->grid, shared_->network,
                                             training, opts);
    PW_CHECK_MSG(det.ok(), det.status().ToString().c_str());
    return std::move(det).value();
  }
};

CoverageExtraTest::Shared* CoverageExtraTest::shared_ = nullptr;

TEST_F(CoverageExtraTest, LoadedModelDrivesTenantSession) {
  detect::OutageDetector det = TrainWith({});
  std::stringstream buffer;
  ASSERT_TRUE(det.Save(buffer).ok());
  auto loaded =
      detect::OutageDetector::Load(buffer, shared_->grid, shared_->network);
  ASSERT_TRUE(loaded.ok());

  detect::StreamOptions sopts;
  sopts.alarm_after = 2;
  detect::TenantSession monitor(
      std::make_shared<detect::OutageDetector>(std::move(loaded).value()),
      sopts);
  const auto& outage = shared_->dataset->outages[0];
  bool raised = false;
  for (size_t t = 0; t < 6; ++t) {
    auto [vm, va] = outage.test.Sample(t % outage.test.num_samples());
    auto event = monitor.Process(vm, va);
    ASSERT_TRUE(event.ok());
    if (event->alarm_raised) raised = true;
  }
  EXPECT_TRUE(raised);
}

TEST_F(CoverageExtraTest, ScenarioRunsAreSeedDeterministic) {
  eval::ExperimentOptions opts;
  opts.test_samples_per_case = 6;
  opts.mlr.epochs = 40;
  auto a = eval::TrainedMethods::Train(*shared_->dataset, opts);
  auto b = eval::TrainedMethods::Train(*shared_->dataset, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ra = eval::RunScenario(*shared_->dataset, *a,
                              eval::MissingScenario::kRandomOffOutage, opts);
  auto rb = eval::RunScenario(*shared_->dataset, *b,
                              eval::MissingScenario::kRandomOffOutage, opts);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  for (size_t m = 0; m < ra->methods.size(); ++m) {
    EXPECT_DOUBLE_EQ(ra->methods[m].identification_accuracy,
                     rb->methods[m].identification_accuracy);
    EXPECT_DOUBLE_EQ(ra->methods[m].false_alarm, rb->methods[m].false_alarm);
  }
}

TEST_F(CoverageExtraTest, DifferentSeedsProduceDifferentDatasets) {
  eval::DatasetOptions dopts;
  dopts.train_states = 4;
  dopts.train_samples_per_state = 4;
  dopts.test_states = 2;
  dopts.test_samples_per_state = 2;
  auto a = eval::BuildDataset(shared_->grid, dopts, 1);
  auto b = eval::BuildDataset(shared_->grid, dopts, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->normal.train.vm.AlmostEquals(b->normal.train.vm, 1e-12));
}

TEST_F(CoverageExtraTest, MaskedOutDetectorEndpointsInMissingIndices) {
  sim::MissingMask mask =
      sim::MissingAtOutage(14, shared_->dataset->outages[0].line);
  auto missing = mask.MissingIndices();
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], shared_->dataset->outages[0].line.i);
  EXPECT_EQ(missing[1], shared_->dataset->outages[0].line.j);
}

}  // namespace
}  // namespace phasorwatch
