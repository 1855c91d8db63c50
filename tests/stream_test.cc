#include "detect/session.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/dataset.h"
#include "grid/ieee_cases.h"
#include "sim/missing_data.h"

namespace phasorwatch::detect {
namespace {

class StreamTest : public ::testing::Test {
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
    dopts.train_states = 16;
    dopts.train_samples_per_state = 8;
    dopts.test_states = 6;
    dopts.test_samples_per_state = 6;
    auto dataset = eval::BuildDataset(shared_->grid, dopts, 55);
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

StreamTest::Shared* StreamTest::shared_ = nullptr;

TEST_F(StreamTest, NormalStreamNeverAlarms) {
  TenantSession monitor(shared_->detector, {});
  for (size_t t = 0; t < 30; ++t) {
    auto [vm, va] = shared_->dataset->normal.test.Sample(
        t % shared_->dataset->normal.test.num_samples());
    auto event = monitor.Process(vm, va);
    ASSERT_TRUE(event.ok());
    EXPECT_FALSE(event->alarm_active);
    EXPECT_FALSE(event->alarm_raised);
    EXPECT_TRUE(event->lines.empty());
  }
}

TEST_F(StreamTest, AlarmRaisedAfterDebounceAndCleared) {
  StreamOptions opts;
  opts.alarm_after = 3;
  opts.clear_after = 2;
  TenantSession monitor(shared_->detector, opts);
  const auto& outage = shared_->dataset->outages[0];

  // Feed outage samples; the alarm must raise on (at earliest) the
  // third consecutive positive, not the first.
  size_t raised_at = 0;
  for (size_t t = 0; t < 10; ++t) {
    auto [vm, va] = outage.test.Sample(t % outage.test.num_samples());
    auto event = monitor.Process(vm, va);
    ASSERT_TRUE(event.ok());
    if (event->alarm_raised) {
      raised_at = t + 1;
      break;
    }
  }
  ASSERT_GT(raised_at, 0u) << "alarm never raised";
  EXPECT_GE(raised_at, opts.alarm_after);
  EXPECT_TRUE(monitor.alarm_active());

  // Back to normal: clears after clear_after consecutive negatives.
  size_t cleared_at = 0;
  for (size_t t = 0; t < 10; ++t) {
    auto [vm, va] = shared_->dataset->normal.test.Sample(
        t % shared_->dataset->normal.test.num_samples());
    auto event = monitor.Process(vm, va);
    ASSERT_TRUE(event.ok());
    if (event->alarm_cleared) {
      cleared_at = t + 1;
      break;
    }
  }
  ASSERT_GT(cleared_at, 0u) << "alarm never cleared";
  EXPECT_GE(cleared_at, opts.clear_after);
  EXPECT_FALSE(monitor.alarm_active());
}

TEST_F(StreamTest, SingleSampleGlitchSuppressed) {
  StreamOptions opts;
  opts.alarm_after = 2;
  TenantSession monitor(shared_->detector, opts);
  const auto& outage = shared_->dataset->outages[1];

  // normal, outage, normal, normal ... one glitch must not alarm.
  auto feed = [&](bool from_outage, size_t t) {
    const auto& src =
        from_outage ? outage.test : shared_->dataset->normal.test;
    auto [vm, va] = src.Sample(t % src.num_samples());
    auto event = monitor.Process(vm, va);
    PW_CHECK(event.ok());
    return event->alarm_active;
  };
  EXPECT_FALSE(feed(false, 0));
  EXPECT_FALSE(feed(true, 0));  // single positive: below alarm_after
  EXPECT_FALSE(feed(false, 1));
  EXPECT_FALSE(feed(false, 2));
}

TEST_F(StreamTest, MajorityVoteStabilizesLines) {
  StreamOptions opts;
  opts.alarm_after = 2;
  TenantSession monitor(shared_->detector, opts);
  const auto& outage = shared_->dataset->outages[2];

  std::vector<grid::LineId> last_lines;
  for (size_t t = 0; t < 8; ++t) {
    auto [vm, va] = outage.test.Sample(t % outage.test.num_samples());
    auto event = monitor.Process(vm, va);
    ASSERT_TRUE(event.ok());
    if (event->alarm_active) last_lines = event->lines;
  }
  ASSERT_FALSE(last_lines.empty());
  EXPECT_NE(std::find(last_lines.begin(), last_lines.end(), outage.line),
            last_lines.end());
}

TEST_F(StreamTest, ResetDropsState) {
  StreamOptions opts;
  opts.alarm_after = 1;
  TenantSession monitor(shared_->detector, opts);
  const auto& outage = shared_->dataset->outages[0];
  auto [vm, va] = outage.test.Sample(0);
  ASSERT_TRUE(monitor.Process(vm, va).ok());
  EXPECT_TRUE(monitor.alarm_active());
  monitor.Reset();
  EXPECT_FALSE(monitor.alarm_active());
}

// Two monitors fed the same stream must emit bit-identical events.
void ExpectSameEvent(const StreamEvent& a, const StreamEvent& b) {
  EXPECT_EQ(a.sample_index, b.sample_index);
  EXPECT_EQ(a.alarm_active, b.alarm_active);
  EXPECT_EQ(a.alarm_raised, b.alarm_raised);
  EXPECT_EQ(a.alarm_cleared, b.alarm_cleared);
  EXPECT_EQ(a.sample_rejected, b.sample_rejected);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.raw.outage_detected, b.raw.outage_detected);
  EXPECT_EQ(a.raw.lines, b.raw.lines);
  EXPECT_EQ(a.raw.affected_nodes, b.raw.affected_nodes);
  EXPECT_EQ(a.raw.decision_score, b.raw.decision_score);
  EXPECT_EQ(a.raw.screened_nodes, b.raw.screened_nodes);
  ASSERT_EQ(a.raw.node_scores.size(), b.raw.node_scores.size());
  for (size_t i = 0; i < a.raw.node_scores.size(); ++i) {
    EXPECT_EQ(a.raw.node_scores[i], b.raw.node_scores[i]) << "node " << i;
  }
}

// Reset() must drop every trace of the stream it acknowledges away. A
// session warmed on a missing-data stream (different detection groups,
// an active alarm), then Reset, must behave exactly like a freshly
// constructed session on the same subsequent stream (complete and
// missing data alike).
TEST_F(StreamTest, ResetAfterWarmMissingDataStreamMatchesFreshSession) {
  StreamOptions opts;
  opts.alarm_after = 2;
  opts.clear_after = 2;
  const auto& outage = shared_->dataset->outages[0];
  const auto& normal = shared_->dataset->normal.test;
  sim::MissingMask none = sim::MissingMask::None(shared_->grid.num_buses());
  sim::MissingMask missing =
      sim::MissingAtOutage(shared_->grid.num_buses(), outage.line);

  // Warm the reused session with a different availability pattern
  // (missing data selects different detection groups) so any state
  // surviving Reset would be observable.
  TenantSession reused(shared_->detector, opts);
  for (size_t t = 0; t < 4; ++t) {
    auto [vm, va] = outage.test.Sample(t % outage.test.num_samples());
    ASSERT_TRUE(reused.Process(vm, va, missing).ok());
  }
  EXPECT_GT(reused.samples_processed(), 0u);
  reused.Reset();
  EXPECT_EQ(reused.samples_processed(), 0u);
  EXPECT_FALSE(reused.alarm_active());

  TenantSession fresh(shared_->detector, opts);

  // Identical mixed stream into both; events must match bit for bit.
  std::vector<std::pair<linalg::Vector, linalg::Vector>> samples;
  std::vector<const sim::MissingMask*> masks;
  for (size_t t = 0; t < 3; ++t) {
    samples.push_back(outage.test.Sample(t % outage.test.num_samples()));
    masks.push_back(&none);
  }
  for (size_t t = 0; t < 3; ++t) {
    samples.push_back(normal.Sample(t % normal.num_samples()));
    masks.push_back(&missing);
  }
  for (size_t k = 0; k < samples.size(); ++k) {
    auto a = reused.Process(samples[k].first, samples[k].second, *masks[k]);
    auto b = fresh.Process(samples[k].first, samples[k].second, *masks[k]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    SCOPED_TRACE("mixed sample " + std::to_string(k));
    ExpectSameEvent(*a, *b);
  }

  // Tail of complete outage samples.
  for (size_t t = 0; t < 4; ++t) {
    auto [vm, va] = outage.test.Sample(t % outage.test.num_samples());
    auto a = reused.Process(vm, va);
    auto b = fresh.Process(vm, va);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    SCOPED_TRACE("tail sample " + std::to_string(t));
    ExpectSameEvent(*a, *b);
  }
}

TEST_F(StreamTest, WorksThroughMissingData) {
  StreamOptions opts;
  opts.alarm_after = 2;
  TenantSession monitor(shared_->detector, opts);
  const auto& outage = shared_->dataset->outages[0];
  sim::MissingMask mask =
      sim::MissingAtOutage(shared_->grid.num_buses(), outage.line);
  bool raised = false;
  for (size_t t = 0; t < 8; ++t) {
    auto [vm, va] = outage.test.Sample(t % outage.test.num_samples());
    auto event = monitor.Process(vm, va, mask);
    ASSERT_TRUE(event.ok());
    if (event->alarm_raised) raised = true;
  }
  EXPECT_TRUE(raised);
}

}  // namespace
}  // namespace phasorwatch::detect
