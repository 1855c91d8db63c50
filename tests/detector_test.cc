#include "detect/detector.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grid/ieee_cases.h"
#include "obs/metrics.h"
#include "obs/quantile.h"
#include "sim/fault_injection.h"
#include "proximity_oracle.h"

namespace phasorwatch::detect {
namespace {

// Shared fixture: simulate a small IEEE-14 corpus once for all tests.
class DetectorTest : public ::testing::Test {
 protected:
  struct Shared {
    grid::Grid grid;
    sim::PmuNetwork network;
    sim::PhasorDataSet normal_train;
    sim::PhasorDataSet normal_test;
    std::vector<grid::LineId> lines;
    std::vector<sim::PhasorDataSet> outage_train;
    std::vector<sim::PhasorDataSet> outage_test;
    std::unique_ptr<OutageDetector> detector;
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

    shared_ = new Shared{std::move(grid).value(),
                         std::move(network).value(),
                         std::move(normal_train).value(),
                         std::move(normal_test).value(),
                         {},
                         {},
                         {},
                         nullptr};

    // A handful of non-islanding lines keeps the fixture fast while
    // exercising multiple subspaces.
    size_t taken = 0;
    for (const grid::LineId& line : shared_->grid.lines()) {
      if (taken >= 6) break;
      auto outage_grid = shared_->grid.WithLineOut(line);
      if (!outage_grid.ok()) continue;
      Rng train_rng = rng.Fork();
      Rng test_rng = rng.Fork();
      auto train = sim::SimulateMeasurements(*outage_grid, sim_opts, train_rng);
      auto test = sim::SimulateMeasurements(*outage_grid, sim_opts, test_rng);
      if (!train.ok() || !test.ok()) continue;
      shared_->lines.push_back(line);
      shared_->outage_train.push_back(std::move(train).value());
      shared_->outage_test.push_back(std::move(test).value());
      ++taken;
    }
    PW_CHECK_GE(shared_->lines.size(), 4u);

    TrainingData data;
    data.normal = &shared_->normal_train;
    data.case_lines = shared_->lines;
    for (const auto& block : shared_->outage_train) data.outage.push_back(&block);
    auto detector = OutageDetector::Train(shared_->grid, shared_->network,
                                          data, DetectorOptions{});
    PW_CHECK_MSG(detector.ok(), detector.status().ToString().c_str());
    shared_->detector =
        std::make_unique<OutageDetector>(std::move(detector).value());
  }

  static void TearDownTestSuite() {
    delete shared_;
    shared_ = nullptr;
  }
};

DetectorTest::Shared* DetectorTest::shared_ = nullptr;

TEST_F(DetectorTest, TrainingFailsOnMalformedInput) {
  TrainingData empty;
  auto det = OutageDetector::Train(shared_->grid, shared_->network, empty, {});
  EXPECT_FALSE(det.ok());
}

TEST_F(DetectorTest, TrainRecordsEachStageScopeOnce) {
#ifdef PW_OBS_DISABLED
  GTEST_SKIP() << "trace scopes compile out";
#else
  // The stages in Train's order; together they tile detect.train_us.
  const char* const kStages[] = {
      "detect.train.class_models_us",     "detect.train.node_subspaces_us",
      "detect.train.ellipses_us",         "detect.train.capabilities_us",
      "detect.train.groups_us",           "detect.train.gate_calibration_us",
      "detect.train.ratio_calibration_us", "detect.train.peel_calibration_us"};
  auto snapshot = [](const char* name) {
    return obs::MetricsRegistry::Global()
        .GetQuantile(name, obs::DefaultLatencyQuantileOptions())
        ->TakeSnapshot();
  };
  const auto total_before = snapshot("detect.train_us");
  std::vector<obs::QuantileHistogram::Snapshot> before;
  for (const char* stage : kStages) before.push_back(snapshot(stage));

  TrainingData data;
  data.normal = &shared_->normal_train;
  data.case_lines = shared_->lines;
  for (const auto& block : shared_->outage_train) data.outage.push_back(&block);
  DetectorOptions opts;
  opts.max_outage_lines = 2;  // includes the peel calibration stage
  ASSERT_TRUE(
      OutageDetector::Train(shared_->grid, shared_->network, data, opts).ok());

  const auto total_after = snapshot("detect.train_us");
  ASSERT_EQ(total_after.count - total_before.count, 1u);
  const double total_us = total_after.sum - total_before.sum;
  double stages_us = 0.0;
  for (size_t s = 0; s < std::size(kStages); ++s) {
    const auto after = snapshot(kStages[s]);
    EXPECT_EQ(after.count - before[s].count, 1u) << kStages[s];
    stages_us += after.sum - before[s].sum;
  }
  // The stages run one after another inside the Train scope.
  EXPECT_LE(stages_us, total_us);
  EXPECT_GT(stages_us, 0.0);
#endif
}

TEST_F(DetectorTest, NormalSamplesProduceNoAlarm) {
  size_t correct = 0;
  const size_t total = 40;
  for (size_t t = 0; t < total; ++t) {
    auto [vm, va] = shared_->normal_test.Sample(t);
    auto result = shared_->detector->Detect(vm, va);
    ASSERT_TRUE(result.ok());
    if (!result->outage_detected) ++correct;
  }
  EXPECT_GE(correct, total * 9 / 10);
}

TEST_F(DetectorTest, LowRankTrainingPathDetectsOutages) {
  // Capping each line model at 4 constraints keeps every node's summed
  // rank r below the ambient dimension (r = 8-16 against n = 28 here;
  // 54-108 uncapped), so the union subspaces take the r x r Gram side
  // of the soft intersection (the 300+-bus training path,
  // docs/SPARSE.md) on the same IEEE-14 fixture data. This asserts
  // detection quality on that path.
  TrainingData data;
  data.normal = &shared_->normal_train;
  data.case_lines = shared_->lines;
  for (const auto& block : shared_->outage_train) data.outage.push_back(&block);
  DetectorOptions options;
  options.subspace.max_constraints = 4;
  auto detector =
      OutageDetector::Train(shared_->grid, shared_->network, data, options);
  ASSERT_TRUE(detector.ok()) << detector.status().ToString();

  size_t hits = 0, total = 0;
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    for (size_t t = 0; t < 20; ++t) {
      auto [vm, va] = shared_->outage_test[c].Sample(t);
      auto result = detector->Detect(vm, va);
      ASSERT_TRUE(result.ok());
      ++total;
      if (std::find(result->lines.begin(), result->lines.end(),
                    shared_->lines[c]) != result->lines.end()) {
        ++hits;
      }
    }
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(total), 0.7);
  size_t false_alarms = 0;
  for (size_t t = 0; t < 40; ++t) {
    auto [vm, va] = shared_->normal_test.Sample(t);
    auto result = detector->Detect(vm, va);
    ASSERT_TRUE(result.ok());
    if (result->outage_detected) ++false_alarms;
  }
  EXPECT_LE(false_alarms, 4u);
}

TEST_F(DetectorTest, CompleteDataOutagesIdentified) {
  size_t hits = 0, total = 0;
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    for (size_t t = 0; t < 20; ++t) {
      auto [vm, va] = shared_->outage_test[c].Sample(t);
      auto result = shared_->detector->Detect(vm, va);
      ASSERT_TRUE(result.ok());
      ++total;
      if (std::find(result->lines.begin(), result->lines.end(),
                    shared_->lines[c]) != result->lines.end()) {
        ++hits;
      }
    }
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(total), 0.7);
}

TEST_F(DetectorTest, MissingOutageEndpointsStillIdentified) {
  size_t hits = 0, total = 0;
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    sim::MissingMask mask =
        sim::MissingAtOutage(shared_->grid.num_buses(), shared_->lines[c]);
    for (size_t t = 0; t < 20; ++t) {
      auto [vm, va] = shared_->outage_test[c].Sample(t);
      auto result = shared_->detector->Detect(vm, va, mask);
      ASSERT_TRUE(result.ok());
      ++total;
      if (std::find(result->lines.begin(), result->lines.end(),
                    shared_->lines[c]) != result->lines.end()) {
        ++hits;
      }
    }
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(total), 0.55);
}

TEST_F(DetectorTest, RandomMissingOnNormalDoesNotAlarm) {
  Rng rng(99);
  size_t false_alarms = 0;
  const size_t total = 40;
  for (size_t t = 0; t < total; ++t) {
    auto [vm, va] = shared_->normal_test.Sample(t);
    sim::MissingMask mask =
        sim::MissingRandom(shared_->grid.num_buses(), 3, {}, rng);
    auto result = shared_->detector->Detect(vm, va, mask);
    ASSERT_TRUE(result.ok());
    if (result->outage_detected) ++false_alarms;
  }
  EXPECT_LE(false_alarms, total / 5);
}

TEST_F(DetectorTest, AffectedNodesFormConnectedSubgraph) {
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    auto [vm, va] = shared_->outage_test[c].Sample(0);
    auto result = shared_->detector->Detect(vm, va);
    ASSERT_TRUE(result.ok());
    if (!result->outage_detected || result->affected_nodes.size() < 2) continue;
    // Each affected node after the first has a neighbor among the rest.
    for (size_t idx = 1; idx < result->affected_nodes.size(); ++idx) {
      size_t node = result->affected_nodes[idx];
      bool connected = false;
      for (size_t other : result->affected_nodes) {
        if (other == node) continue;
        const auto& nbs = shared_->grid.Neighbors(node);
        if (std::find(nbs.begin(), nbs.end(), other) != nbs.end()) {
          connected = true;
          break;
        }
      }
      EXPECT_TRUE(connected);
    }
  }
}

TEST_F(DetectorTest, PredictedLinesHaveSelectedEndpoints) {
  auto [vm, va] = shared_->outage_test[0].Sample(1);
  auto result = shared_->detector->Detect(vm, va);
  ASSERT_TRUE(result.ok());
  for (const grid::LineId& line : result->lines) {
    EXPECT_NE(std::find(result->affected_nodes.begin(),
                        result->affected_nodes.end(), line.i),
              result->affected_nodes.end());
    EXPECT_NE(std::find(result->affected_nodes.begin(),
                        result->affected_nodes.end(), line.j),
              result->affected_nodes.end());
  }
}

TEST_F(DetectorTest, SampleSizeMismatchRejected) {
  linalg::Vector bad(3);
  auto result = shared_->detector->Detect(bad, bad);
  EXPECT_FALSE(result.ok());
}

TEST_F(DetectorTest, AllMeasurementsMissingRejected) {
  auto [vm, va] = shared_->normal_test.Sample(0);
  sim::MissingMask mask = sim::MissingMask::None(shared_->grid.num_buses());
  for (size_t i = 0; i < mask.size(); ++i) mask.missing[i] = true;
  auto result = shared_->detector->Detect(vm, va, mask);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataMissing);
}

TEST_F(DetectorTest, ScoresArePerNodeAndFinite) {
  auto [vm, va] = shared_->outage_test[0].Sample(2);
  auto result = shared_->detector->Detect(vm, va);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->node_scores.size(), shared_->grid.num_buses());
  for (size_t i = 0; i < result->node_scores.size(); ++i) {
    EXPECT_GE(result->node_scores[i], 0.0);
    EXPECT_TRUE(std::isfinite(result->node_scores[i]));
  }
}

TEST_F(DetectorTest, OutageEndpointScoresAreLowest) {
  size_t endpoint_in_bottom = 0;
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    auto [vm, va] = shared_->outage_test[c].Sample(3);
    auto result = shared_->detector->Detect(vm, va);
    ASSERT_TRUE(result.ok());
    // Rank of the true endpoints in the score ordering.
    std::vector<size_t> order(shared_->grid.num_buses());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return result->node_scores[a] < result->node_scores[b];
    });
    size_t rank_i = std::find(order.begin(), order.end(),
                              shared_->lines[c].i) - order.begin();
    size_t rank_j = std::find(order.begin(), order.end(),
                              shared_->lines[c].j) - order.begin();
    if (std::min(rank_i, rank_j) < 3) ++endpoint_in_bottom;
  }
  EXPECT_GE(endpoint_in_bottom, shared_->lines.size() * 2 / 3);
}

TEST_F(DetectorTest, ProximityCacheGrowsAndServes) {
  auto [vm, va] = shared_->normal_test.Sample(0);
  size_t before = shared_->detector->proximity_cache_size();
  sim::MissingMask mask =
      sim::MissingCluster(shared_->network, 0);
  ASSERT_TRUE(shared_->detector->Detect(vm, va, mask).ok());
  size_t after = shared_->detector->proximity_cache_size();
  EXPECT_GE(after, before);
  // Re-detect with the same mask: cache should not grow further.
  ASSERT_TRUE(shared_->detector->Detect(vm, va, mask).ok());
  EXPECT_EQ(shared_->detector->proximity_cache_size(), after);
}

TEST_F(DetectorTest, WholeClusterLossStillDetects) {
  size_t detected = 0, total = 0;
  for (size_t c = 0; c < shared_->lines.size(); ++c) {
    size_t cluster = shared_->network.ClusterOf(shared_->lines[c].i);
    sim::MissingMask mask = sim::MissingCluster(shared_->network, cluster);
    for (size_t t = 0; t < 10; ++t) {
      auto [vm, va] = shared_->outage_test[c].Sample(t);
      auto result = shared_->detector->Detect(vm, va, mask);
      ASSERT_TRUE(result.ok());
      ++total;
      if (result->outage_detected) ++detected;
    }
  }
  // Even with the whole home PDC dark, most outages must still raise an
  // alarm (localization may be coarser).
  EXPECT_GE(static_cast<double>(detected) / static_cast<double>(total), 0.6);
}

TEST_F(DetectorTest, IntrospectionAccessorsWired) {
  EXPECT_EQ(shared_->detector->ellipses().size(), shared_->grid.num_buses());
  EXPECT_EQ(shared_->detector->groups().size(),
            shared_->network.num_clusters());
  EXPECT_GT(shared_->detector->decision_threshold(), 0.0);
  EXPECT_GT(shared_->detector->normal_model().constraints.dim(), 0u);
  EXPECT_GT(shared_->detector->capabilities().NodeLevel().rows(), 0u);
}


// Detect keeps its working buffers in one thread_local scratch shared by
// every detector on the thread. Interleaving calls across detectors of
// different grid size (IEEE-14, IEEE-30) and mode (legacy, two-line
// peeling) must reproduce, bit for bit, what each detector returns on
// its own on a fresh thread: the scratch carries no state from one call
// to the next, whichever detector made it and however it returned.
class DetectScratchTest : public ::testing::Test {
 protected:
  struct Sample {
    linalg::Vector vm;
    linalg::Vector va;
    sim::MissingMask mask;
  };

  struct Corpus {
    grid::Grid grid;
    sim::PmuNetwork network;
    std::unique_ptr<OutageDetector> legacy;
    std::unique_ptr<OutageDetector> multi;  ///< max_outage_lines = 2
    std::vector<Sample> samples;
    size_t fault_begin = 0;  ///< first sample of the fault-injected block
  };

  static std::unique_ptr<Corpus> ieee14_;
  static std::unique_ptr<Corpus> ieee30_;

  // Both suites on this fixture share one pair of corpora, trained by
  // whichever suite runs first and freed at exit.
  static void SetUpTestSuite() {
    if (ieee14_ != nullptr) return;
    auto ieee14 = grid::IeeeCase14();
    PW_CHECK(ieee14.ok());
    ieee14_ = BuildCorpus(std::move(ieee14).value(), 3, 2024);
    auto ieee30 = grid::IeeeCase30();
    PW_CHECK(ieee30.ok());
    ieee30_ = BuildCorpus(std::move(ieee30).value(), 4, 30303);
  }

  // Trains both detectors on a small corpus of `grid` and builds the
  // sample stream: complete data, outage-endpoint loss (the same mask
  // twice in a row), random loss, whole-cluster loss, an all-missing
  // sample (rejected mid-call), and a fault-injected outage block
  // (gross spikes, frozen channels, non-finite values) that drives the
  // bad-data screen.
  static std::unique_ptr<Corpus> BuildCorpus(grid::Grid grid_in,
                                             size_t clusters, uint64_t seed) {
    auto network = sim::PmuNetwork::Build(grid_in, clusters);
    PW_CHECK(network.ok());
    // The detectors keep non-owning pointers to the grid and network,
    // so they must live at their final address before training.
    auto corpus = std::make_unique<Corpus>(Corpus{
        std::move(grid_in), std::move(network).value(), nullptr, nullptr, {}});
    const grid::Grid& grid = corpus->grid;
    const size_t n = grid.num_buses();

    sim::SimulationOptions sim_opts;
    sim_opts.load.num_states = 16;
    sim_opts.samples_per_state = 8;
    Rng rng(seed);
    auto normal_train = sim::SimulateMeasurements(grid, sim_opts, rng);
    PW_CHECK(normal_train.ok());
    auto normal_test = sim::SimulateMeasurements(grid, sim_opts, rng);
    PW_CHECK(normal_test.ok());

    std::vector<grid::LineId> lines;
    std::vector<sim::PhasorDataSet> outage_train;
    std::vector<sim::PhasorDataSet> outage_test;
    for (const grid::LineId& line : grid.lines()) {
      if (lines.size() >= 6) break;
      auto outage_grid = grid.WithLineOut(line);
      if (!outage_grid.ok()) continue;
      Rng train_rng = rng.Fork();
      Rng test_rng = rng.Fork();
      auto train = sim::SimulateMeasurements(*outage_grid, sim_opts, train_rng);
      auto test = sim::SimulateMeasurements(*outage_grid, sim_opts, test_rng);
      if (!train.ok() || !test.ok()) continue;
      lines.push_back(line);
      outage_train.push_back(std::move(train).value());
      outage_test.push_back(std::move(test).value());
    }
    PW_CHECK_GE(lines.size(), 4u);

    TrainingData data;
    data.normal = &*normal_train;
    data.case_lines = lines;
    for (const auto& block : outage_train) data.outage.push_back(&block);
    auto legacy = OutageDetector::Train(grid, corpus->network, data, {});
    PW_CHECK_MSG(legacy.ok(), legacy.status().ToString().c_str());
    corpus->legacy =
        std::make_unique<OutageDetector>(std::move(legacy).value());
    DetectorOptions multi_opts;
    multi_opts.max_outage_lines = 2;
    auto multi =
        OutageDetector::Train(grid, corpus->network, data, multi_opts);
    PW_CHECK_MSG(multi.ok(), multi.status().ToString().c_str());
    corpus->multi = std::make_unique<OutageDetector>(std::move(multi).value());

    std::vector<Sample>& samples = corpus->samples;
    Rng mask_rng(777);
    for (size_t c = 0; c < lines.size(); ++c) {
      auto [vm0, va0] = outage_test[c].Sample(0);
      samples.push_back({vm0, va0, sim::MissingMask::None(n)});
      sim::MissingMask endpoint_mask = sim::MissingAtOutage(n, lines[c]);
      auto [vm1, va1] = outage_test[c].Sample(1);
      samples.push_back({vm1, va1, endpoint_mask});
      auto [vm2, va2] = outage_test[c].Sample(2);
      samples.push_back({vm2, va2, endpoint_mask});
      auto [vm3, va3] = normal_test->Sample(c);
      samples.push_back({vm3, va3, sim::MissingRandom(n, 3, {}, mask_rng)});
    }
    auto [vm, va] = normal_test->Sample(20);
    samples.push_back({vm, va, sim::MissingCluster(corpus->network, 0)});
    sim::MissingMask all_missing = sim::MissingMask::None(n);
    all_missing.missing.assign(n, true);
    samples.push_back({vm, va, all_missing});

    sim::PhasorDataSet corrupted = outage_test[0];
    const size_t num_samples = corrupted.num_samples();
    sim::FaultScheduleOptions fopts;
    fopts.gross_errors = 4;
    fopts.frozen_channels = 2;
    fopts.non_finite = 2;
    fopts.window = 3;
    auto schedule =
        sim::MakeRandomFaultSchedule(fopts, n, num_samples, 424242);
    PW_CHECK(schedule.ok());
    auto injector = sim::FaultInjector::Create(std::move(schedule).value(), n,
                                               num_samples, 424242);
    PW_CHECK(injector.ok());
    std::vector<sim::MissingMask> masks;
    PW_CHECK(injector->ApplyToDataSet(&corrupted, &masks).ok());
    corpus->fault_begin = samples.size();
    for (size_t t = 0; t < num_samples; ++t) {
      auto [fvm, fva] = corrupted.Sample(t);
      samples.push_back({fvm, fva, masks[t]});
    }
    return corpus;
  }

  static void ExpectSameResult(const Result<DetectionResult>& a,
                               const Result<DetectionResult>& b) {
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code());
      return;
    }
    EXPECT_EQ(a->outage_detected, b->outage_detected);
    EXPECT_EQ(a->decision_score, b->decision_score);
    EXPECT_EQ(a->affected_nodes, b->affected_nodes);
    EXPECT_EQ(a->lines, b->lines);
    ASSERT_EQ(a->node_scores.size(), b->node_scores.size());
    for (size_t i = 0; i < a->node_scores.size(); ++i) {
      EXPECT_EQ(a->node_scores[i], b->node_scores[i]) << "node " << i;
    }
    EXPECT_EQ(a->screened_nodes, b->screened_nodes);
    // The multi-line identification (empty on a legacy detector) must
    // match line for line with bit-equal confidences.
    ASSERT_EQ(a->outage_set.size(), b->outage_set.size());
    for (size_t i = 0; i < a->outage_set.size(); ++i) {
      EXPECT_EQ(a->outage_set[i].line, b->outage_set[i].line);
      EXPECT_EQ(a->outage_set[i].confidence, b->outage_set[i].confidence);
    }
  }
};

std::unique_ptr<DetectScratchTest::Corpus> DetectScratchTest::ieee14_;
std::unique_ptr<DetectScratchTest::Corpus> DetectScratchTest::ieee30_;

TEST_F(DetectScratchTest, InterleavedDetectorsMatchIsolatedRuns) {
  // Sizes and modes alternate from one call to the next.
  struct Lane {
    OutageDetector* detector;
    const std::vector<Sample>* samples;
    bool multi;
    std::vector<Result<DetectionResult>> isolated;
  };
  const Corpus& ieee14 = *ieee14_;
  const Corpus& ieee30 = *ieee30_;
  std::vector<Lane> lanes = {{ieee30.multi.get(), &ieee30.samples, true, {}},
                             {ieee14.legacy.get(), &ieee14.samples, false, {}},
                             {ieee30.legacy.get(), &ieee30.samples, false, {}},
                             {ieee14.multi.get(), &ieee14.samples, true, {}}};

  // Reference: each detector alone, in stream order, on a thread of its
  // own (a scratch no other detector has touched).
  for (Lane& lane : lanes) {
    std::thread([&lane] {
      for (const Sample& s : *lane.samples) {
        lane.isolated.push_back(lane.detector->Detect(s.vm, s.va, s.mask));
      }
    }).join();
  }

  // Interleaved on this thread, each lane walking its stream backwards
  // so every call follows a different detector and a different sample
  // than it did in the reference run.
  size_t longest = 0;
  for (const Lane& lane : lanes) {
    longest = std::max(longest, lane.samples->size());
  }
  size_t rejected = 0, screened = 0, multi_results = 0, identified = 0;
  for (size_t k = 0; k < longest; ++k) {
    for (size_t l = 0; l < lanes.size(); ++l) {
      const Lane& lane = lanes[l];
      if (k >= lane.samples->size()) continue;
      const size_t i = lane.samples->size() - 1 - k;
      const Sample& s = (*lane.samples)[i];
      Result<DetectionResult> result =
          lane.detector->Detect(s.vm, s.va, s.mask);
      SCOPED_TRACE(testing::Message() << "lane " << l << " sample " << i);
      ExpectSameResult(result, lane.isolated[i]);
      if (!result.ok()) {
        // Only the all-missing sample is rejected, with DataMissing.
        EXPECT_EQ(result.status().code(), StatusCode::kDataMissing);
        ++rejected;
        continue;
      }
      screened += result->screened_nodes;
      if (lane.multi) {
        ++multi_results;
        identified += result->outage_set.size();
      }
    }
  }
  EXPECT_EQ(rejected, lanes.size());
  // The fault schedule must actually have driven the screen, and the
  // parity must cover real peeling runs, not a stream of quiet samples.
  EXPECT_GT(screened, 0u);
  EXPECT_GE(identified, multi_results / 2);
}

// Detect over a batch of samples, back to back on one detector and one
// thread, the way a session feeds it. Each result must equal the same
// sample detected alone on a thread whose scratch nothing else has
// touched, so a warm scratch (the endpoint mask repeats, the previous
// call may have been rejected) changes nothing.
class DetectBatchTest : public DetectScratchTest {
 protected:
  static std::vector<Sample> Slice(const std::vector<Sample>& samples,
                                   size_t begin, size_t end) {
    return {samples.begin() + static_cast<std::ptrdiff_t>(begin),
            samples.begin() + static_cast<std::ptrdiff_t>(end)};
  }

  static std::vector<Result<DetectionResult>> DetectInOrder(
      OutageDetector& detector, const std::vector<Sample>& samples) {
    std::vector<Result<DetectionResult>> results;
    for (const Sample& s : samples) {
      results.push_back(detector.Detect(s.vm, s.va, s.mask));
    }
    return results;
  }

  static std::vector<Result<DetectionResult>> DetectEachAlone(
      OutageDetector& detector, const std::vector<Sample>& samples) {
    std::vector<Result<DetectionResult>> results;
    for (const Sample& s : samples) {
      std::thread([&] {
        results.push_back(detector.Detect(s.vm, s.va, s.mask));
      }).join();
    }
    return results;
  }
};

TEST_F(DetectBatchTest, BatchMatchesPerSampleDetectBitExact) {
  const Corpus& c = *ieee30_;
  std::vector<Sample> samples = Slice(c.samples, 0, c.fault_begin);
  auto batch = DetectInOrder(*c.legacy, samples);
  auto alone = DetectEachAlone(*c.legacy, samples);
  for (size_t i = 0; i < samples.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "sample " << i);
    ExpectSameResult(batch[i], alone[i]);
  }
}

TEST_F(DetectBatchTest, MultiOutageBatchMatchesPerSampleDetect) {
  const Corpus& c = *ieee30_;
  std::vector<Sample> samples = Slice(c.samples, 0, c.fault_begin);
  auto batch = DetectInOrder(*c.multi, samples);
  auto alone = DetectEachAlone(*c.multi, samples);
  size_t identified = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "sample " << i);
    ExpectSameResult(batch[i], alone[i]);
    if (batch[i].ok()) identified += batch[i]->outage_set.size();
  }
  // The parity must cover actual peeling runs, not a batch of quiets.
  EXPECT_GE(identified, samples.size() / 2);
}

TEST_F(DetectBatchTest, MultiOutageBatchMatchesPerSampleUnderFaults) {
  // The peeling layer must give the same answers back to back as alone
  // even while the bad-data screen shrinks the coordinate set under it.
  const Corpus& c = *ieee30_;
  std::vector<Sample> samples =
      Slice(c.samples, c.fault_begin, c.samples.size());
  auto batch = DetectInOrder(*c.multi, samples);
  auto alone = DetectEachAlone(*c.multi, samples);
  size_t screened = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "sample " << i);
    ExpectSameResult(batch[i], alone[i]);
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    screened += batch[i]->screened_nodes;
  }
  // The schedule must actually have driven the screen.
  EXPECT_GT(screened, 0u);
}

TEST_F(DetectBatchTest, BatchIsIndependentOfSampleOrder) {
  // Reversing the batch must not change any individual result: nothing
  // a call leaves in the scratch may leak into the next sample.
  const Corpus& c = *ieee30_;
  std::vector<Sample> forward = Slice(c.samples, 0, c.fault_begin);
  std::vector<Sample> reversed(forward.rbegin(), forward.rend());
  auto fwd = DetectInOrder(*c.legacy, forward);
  auto rev = DetectInOrder(*c.legacy, reversed);
  for (size_t i = 0; i < forward.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "sample " << i);
    ExpectSameResult(fwd[i], rev[forward.size() - 1 - i]);
  }
}

// Class-family residuals against the direct oracle. Every class
// residual the gate and the peel read comes from one
// ProximityEngine::EvaluateFamily call; here each is recomputed with
// per-model Evaluate (one regressor walk per class model) over the same
// coordinates, on the complete, masked and fault-injected samples of
// both corpora and both detector modes. Residuals and drops must agree
// to a pinned relative bound, and a localization rebuilt from the
// oracle residuals must name the same lines and outage sets as Detect.
class ClassFamilyParityTest : public DetectScratchTest {
 protected:
  // Bound on the relative residual error against the oracle. The
  // family's r_0 - 2 g_c + e_c cancels terms up to ~4e3 times r_c on
  // these corpora, so its rounding error is far above one ulp: the
  // worst measured here is 9.1e-13 (IEEE-14) and 1.2e-12 (IEEE-30). The
  // bound leaves ~80x headroom and still catches any real formula
  // error.
  static constexpr double kResidualRelTol = 1e-10;

  struct Direct {
    double normal = 0.0;
    std::vector<double> cases;
    std::vector<double> energies;
  };

  // Coordinates Detect pools for a sample: the available nodes the
  // Eq. 4 screen keeps (default options), both channels.
  static std::vector<size_t> PooledCoords(const OutageDetector& det,
                                          const Sample& s) {
    const size_t n = s.mask.size();
    std::vector<size_t> nodes;
    for (size_t i = 0; i < n; ++i) {
      if (s.mask.missing[i]) continue;
      if (!std::isfinite(s.vm[i]) || !std::isfinite(s.va[i])) continue;
      if (det.ellipses()[i].QuadraticForm({s.vm[i], s.va[i]}) >
          kScreenThreshold) {
        continue;
      }
      nodes.push_back(i);
    }
    std::vector<size_t> coords = nodes;
    for (size_t i : nodes) coords.push_back(n + i);
    return coords;
  }

  // The oracle: each class model evaluated on its own.
  static Direct Evaluate(ProximityEngine& oracle, const ClassFamily& family,
                         const linalg::Vector& x,
                         const std::vector<size_t>& coords) {
    Direct d;
    auto r0 = oracle.Evaluate(family.base(), 1, x, coords);
    PW_CHECK(r0.ok());
    d.normal = *r0;
    for (size_t c = 0; c < family.num_cases(); ++c) {
      SubspaceModel model = family.base();
      model.mean = family.case_mean(c);
      auto r = oracle.Evaluate(model, 1, x, coords);
      auto e = oracle.Evaluate(family.base(), 1, family.case_mean(c), coords);
      PW_CHECK(r.ok() && e.ok());
      d.cases.push_back(*r);
      d.energies.push_back(*e);
    }
    return d;
  }

  struct Worst {
    double relative_error = 0.0;
    /// (r_0 + e_c) / r_c: how much the family form cancels.
    double cancellation = 0.0;
  };

  // Family output against the oracle, folding the worst relative
  // residual error and cancellation ratio into `worst`.
  static void ExpectParity(const FamilyResiduals& fam, const Direct& d,
                           Worst* worst) {
    EXPECT_EQ(fam.normal, d.normal);  // same walk, same summation
    for (size_t c = 0; c < d.cases.size(); ++c) {
      const double r = std::max(d.cases[c], 1e-300);
      const double rel = std::abs(fam.cases[c] - d.cases[c]) / r;
      worst->relative_error = std::max(worst->relative_error, rel);
      worst->cancellation =
          std::max(worst->cancellation, (d.normal + d.energies[c]) / r);
      EXPECT_LE(rel, kResidualRelTol) << "case " << c;
      const double drop =
          (d.normal - d.cases[c]) / std::max(d.energies[c], 1e-15);
      EXPECT_LE(std::abs(fam.drops[c] - drop),
                kResidualRelTol * std::max(1.0, std::abs(drop)))
          << "case " << c;
    }
  }

  // Replays every sample of `corpus` through `det`, checking the family
  // against the oracle and Detect's lines / outage set against a
  // localization rebuilt from oracle residuals.
  static void CheckCorpus(const Corpus& corpus, OutageDetector& det,
                          bool multi) {
    const ClassFamily& family = det.class_family();
    const size_t num_cases = family.num_cases();
    ProximityEngine engine;
    ProximityEngine oracle;
    FamilyResiduals fam;
    Worst worst;
    size_t flagged = 0, peel_rounds = 0;
    for (size_t k = 0; k < corpus.samples.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "sample " << k);
      const Sample& s = corpus.samples[k];
      Result<DetectionResult> result = det.Detect(s.vm, s.va, s.mask);
      if (!result.ok()) continue;  // the all-missing sample
      const std::vector<size_t> coords = PooledCoords(det, s);
      const linalg::Vector x = FeatureVector(s.vm, s.va);
      ASSERT_TRUE(engine.EvaluateFamily(family, 7, x, coords, &fam).ok());
      const Direct d = Evaluate(oracle, family, x, coords);
      ExpectParity(fam, d, &worst);
      if (!result->outage_detected) continue;
      ++flagged;

      std::vector<std::pair<double, size_t>> ranked;
      for (size_t c = 0; c < num_cases; ++c) ranked.push_back({d.cases[c], c});
      std::sort(ranked.begin(), ranked.end());
      std::vector<grid::LineId> lines;
      if (!multi) {
        const double best = std::max(ranked.front().first, 1e-15);
        for (const auto& [r, c] : ranked) {
          if (r <= best * kLineWindow) {
            lines.push_back(det.case_lines()[c]);
          }
        }
        EXPECT_EQ(result->lines, lines);
        continue;
      }
      // The greedy peel, on oracle residuals.
      const size_t anchor = ranked.front().second;
      std::vector<size_t> set = {anchor};
      linalg::Vector peeled = x;
      auto subtract = [&](size_t c) {
        for (size_t i = 0; i < peeled.size(); ++i) {
          peeled[i] -= family.case_mean(c)[i] - family.base().mean[i];
        }
      };
      subtract(anchor);
      while (set.size() < 2) {
        ++peel_rounds;
        ASSERT_TRUE(
            engine.EvaluateFamily(family, 7, peeled, coords, &fam).ok());
        const Direct p = Evaluate(oracle, family, peeled, coords);
        ExpectParity(fam, p, &worst);
        size_t best_case = num_cases;
        for (size_t c = 0; c < num_cases; ++c) {
          if (std::find(set.begin(), set.end(), c) != set.end()) continue;
          if (best_case == num_cases || p.cases[c] < p.cases[best_case]) {
            best_case = c;
          }
        }
        if (best_case == num_cases) break;
        const double drop = (std::max(p.normal, 1e-15) - p.cases[best_case]) /
                            std::max(p.energies[best_case], 1e-15);
        if (drop <= det.peel_threshold(best_case, anchor)) break;
        set.push_back(best_case);
        subtract(best_case);
      }
      ASSERT_EQ(result->outage_set.size(), set.size());
      for (size_t i = 0; i < set.size(); ++i) {
        EXPECT_EQ(result->outage_set[i].line, det.case_lines()[set[i]]);
      }
    }
    // The replay must cover real outages (and, for the multi detector,
    // real peel rounds), not a stream of quiet samples.
    EXPECT_GT(flagged, corpus.samples.size() / 2);
    if (multi) {
      EXPECT_GT(peel_rounds, 0u);
    }
    char text[32];
    std::snprintf(text, sizeof(text), "%.3g", worst.relative_error);
    RecordProperty("worst_relative_residual_error", text);
    std::snprintf(text, sizeof(text), "%.3g", worst.cancellation);
    RecordProperty("worst_cancellation_ratio", text);
  }
};

// Every entry a trained detector's engine caches, against the
// pseudo-inverse oracle (tests/proximity_oracle.h). Each (model, group)
// is rebuilt in a fresh engine, which builds the same entry, and read on
// one test sample; family entries also at the base mean, where every
// case residual is that case's shift energy. The model behind a key
// follows detector.cc: 0 the normal model, 1 + 2i and 2 + 2i node i's
// union and intersection models, 2^21 the class family.
class TrainedEntryOracleTest : public DetectScratchTest {
 protected:
  static void CheckEntries(const Corpus& corpus, const OutageDetector& det,
                           const std::string& label) {
    constexpr uint64_t kClassFamilyKey = uint64_t{1} << 21;
    const ClassFamily& family = det.class_family();
    const Sample& s = corpus.samples.front();
    const linalg::Vector x = FeatureVector(s.vm, s.va);
    const std::vector<ProximityEngine::CachedKey> keys =
        det.proximity_engine().CachedKeys();
    ASSERT_GT(keys.size(), 0u);
    ProximityEngine engine;
    FamilyResiduals got;
    double worst = 0.0;
    size_t family_entries = 0;
    // |got - want| within kRelTol of max(|want|, floor); returns the
    // relative error.
    auto near = [&](double got_value, double want, double floor,
                    const char* what) {
      const double scale = std::max(std::abs(want), floor);
      const double rel = std::abs(got_value - want) / scale;
      EXPECT_LE(rel, oracle::kRelTol) << what;
      worst = std::max(worst, rel);
    };
    for (const ProximityEngine::CachedKey& key : keys) {
      SCOPED_TRACE(testing::Message() << "model key " << key.model_key
                                      << " |D|=" << key.group.size());
      if (key.model_key == kClassFamilyKey) {
        ASSERT_TRUE(key.family);
        ++family_entries;
        const oracle::FamilyResult want = oracle::Family(family, x, key.group);
        ASSERT_TRUE(engine.EvaluateFamily(family, key.model_key, x, key.group,
                                          &got)
                        .ok());
        near(got.normal, want.normal, 0.0, "normal");
        for (size_t c = 0; c < family.num_cases(); ++c) {
          const double cancel = want.normal + want.energies[c];
          near(got.cases[c], want.cases[c], cancel, "case residual");
          near(got.drops[c], want.drops[c],
               cancel / std::max(want.energies[c], 1e-15), "drop");
        }
        ASSERT_TRUE(engine.EvaluateFamily(family, key.model_key,
                                          family.base().mean, key.group, &got)
                        .ok());
        for (size_t c = 0; c < family.num_cases(); ++c) {
          near(got.cases[c], want.energies[c], 0.0, "energy");
        }
        continue;
      }
      ASSERT_FALSE(key.family);
      const SubspaceModel* model = &det.normal_model();
      if (key.model_key != 0) {
        const size_t node = (key.model_key - 1) / 2;
        ASSERT_LT(node, det.grid().num_buses());
        model = key.model_key % 2 == 1
                    ? &det.node_subspaces(node).union_model
                    : &det.node_subspaces(node).intersection_model;
      }
      auto prox = engine.Evaluate(*model, key.model_key, x, key.group);
      ASSERT_TRUE(prox.ok());
      near(*prox, oracle::Proximity(*model, x, key.group), 0.0, "proximity");
    }
    EXPECT_GT(family_entries, 0u);
    EXPECT_EQ(engine.cache_size(), keys.size());
    char text[32];
    std::snprintf(text, sizeof(text), "%.3g", worst);
    RecordProperty(label + "_worst_relative_error", text);
    RecordProperty(label + "_entries", static_cast<int>(keys.size()));
  }
};

TEST_F(TrainedEntryOracleTest, Ieee14EntriesMatchPseudoInverseOracle) {
  CheckEntries(*ieee14_, *ieee14_->legacy, "legacy");
  CheckEntries(*ieee14_, *ieee14_->multi, "multi");
}

TEST_F(TrainedEntryOracleTest, Ieee30EntriesMatchPseudoInverseOracle) {
  CheckEntries(*ieee30_, *ieee30_->legacy, "legacy");
  CheckEntries(*ieee30_, *ieee30_->multi, "multi");
}

TEST_F(ClassFamilyParityTest, Ieee14LegacyMatchesDirectOracle) {
  CheckCorpus(*ieee14_, *ieee14_->legacy, false);
}

TEST_F(ClassFamilyParityTest, Ieee14MultiLineMatchesDirectOracle) {
  CheckCorpus(*ieee14_, *ieee14_->multi, true);
}

TEST_F(ClassFamilyParityTest, Ieee30LegacyMatchesDirectOracle) {
  CheckCorpus(*ieee30_, *ieee30_->legacy, false);
}

TEST_F(ClassFamilyParityTest, Ieee30MultiLineMatchesDirectOracle) {
  CheckCorpus(*ieee30_, *ieee30_->multi, true);
}

}  // namespace
}  // namespace phasorwatch::detect
