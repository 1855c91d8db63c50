// Proves the tentpole guarantee of the thread-pool refactor: datasets,
// trained models, and experiment metrics are bit-identical at every
// parallelism degree. Any FP reassociation or RNG order dependence in
// the parallel fan-outs shows up here as an exact-inequality failure.

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "detect/detector.h"
#include "eval/dataset.h"
#include "eval/experiments.h"
#include "grid/grid.h"
#include "grid/ieee_cases.h"
#include "obs/metrics.h"
#include "sim/pmu_network.h"

namespace phasorwatch::eval {
namespace {

// Bit-exact matrix comparison (no tolerance on purpose).
::testing::AssertionResult MatricesIdentical(const linalg::Matrix& a,
                                             const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c) != b(r, c)) {
        return ::testing::AssertionFailure()
               << "element (" << r << "," << c << ") differs: " << a(r, c)
               << " vs " << b(r, c);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult DatasetsIdentical(const Dataset& a,
                                             const Dataset& b) {
  auto case_identical = [](const CaseData& x,
                           const CaseData& y) -> ::testing::AssertionResult {
    if (!(x.line == y.line)) {
      return ::testing::AssertionFailure() << "case line mismatch";
    }
    if (auto r = MatricesIdentical(x.train.vm, y.train.vm); !r) return r;
    if (auto r = MatricesIdentical(x.train.va, y.train.va); !r) return r;
    if (auto r = MatricesIdentical(x.test.vm, y.test.vm); !r) return r;
    if (auto r = MatricesIdentical(x.test.va, y.test.va); !r) return r;
    return ::testing::AssertionSuccess();
  };
  if (auto r = case_identical(a.normal, b.normal); !r) {
    return r << " (normal case)";
  }
  if (a.outages.size() != b.outages.size()) {
    return ::testing::AssertionFailure()
           << "outage count " << a.outages.size() << " vs "
           << b.outages.size();
  }
  for (size_t i = 0; i < a.outages.size(); ++i) {
    if (auto r = case_identical(a.outages[i], b.outages[i]); !r) {
      return r << " (outage case " << i << ")";
    }
  }
  if (a.skipped_lines != b.skipped_lines) {
    return ::testing::AssertionFailure() << "skipped_lines differ";
  }
  return ::testing::AssertionSuccess();
}

DatasetOptions SmallDatasetOptions(size_t parallelism) {
  DatasetOptions dopts;
  dopts.train_states = 10;
  dopts.train_samples_per_state = 6;
  dopts.test_states = 5;
  dopts.test_samples_per_state = 5;
  dopts.parallelism = parallelism;
  return dopts;
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // PW_THREADS would override every per-call parallelism choice and
    // collapse the degrees under test into one.
    ::unsetenv("PW_THREADS");
  }
};

TEST_F(ParallelDeterminismTest, BuildDatasetBitIdenticalAcrossDegrees) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());

  auto serial = BuildDataset(*grid, SmallDatasetOptions(1), 77);
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial->outages.size(), 0u);

  for (size_t degree : {2u, 8u}) {
    auto parallel = BuildDataset(*grid, SmallDatasetOptions(degree), 77);
    ASSERT_TRUE(parallel.ok()) << "degree=" << degree;
    EXPECT_TRUE(DatasetsIdentical(*serial, *parallel))
        << "degree=" << degree;
  }
}

TEST_F(ParallelDeterminismTest, TrainedModelBitIdenticalAcrossDegrees) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());
  auto network = sim::PmuNetwork::Build(*grid, 3);
  ASSERT_TRUE(network.ok());
  auto dataset = BuildDataset(*grid, SmallDatasetOptions(1), 77);
  ASSERT_TRUE(dataset.ok());

  detect::TrainingData training;
  training.normal = &dataset->normal.train;
  for (const auto& c : dataset->outages) {
    training.case_lines.push_back(c.line);
    training.outage.push_back(&c.train);
  }

  // What one Train leaves behind: the saved model bytes and the serving
  // cache its calibration passes warmed.
  struct Trained {
    std::string model;
    std::vector<std::pair<uint64_t, std::vector<size_t>>> cached_keys;
    size_t cache_bytes = 0;
    uint64_t regressor_builds = 0;
  };
  auto train = [&](size_t parallelism, size_t max_outage_lines) {
    detect::DetectorOptions opts;
    opts.parallelism = parallelism;
    opts.max_outage_lines = max_outage_lines;
#ifndef PW_OBS_DISABLED
    const obs::Counter* builds = obs::MetricsRegistry::Global().GetCounter(
        "proximity.regressor_builds");
    const uint64_t builds_before = builds->value();
#endif
    auto det = detect::OutageDetector::Train(*grid, *network, training, opts);
    PW_CHECK(det.ok());
    Trained out;
#ifndef PW_OBS_DISABLED
    out.regressor_builds = builds->value() - builds_before;
#endif
    std::ostringstream bytes;
    PW_CHECK(det->Save(bytes).ok());
    out.model = bytes.str();
    const detect::ProximityEngine& engine = det->proximity_engine();
    for (const auto& key : engine.CachedKeys()) {
      // The family flag rides in the key's low bit so a plain and a
      // family entry of one group stay distinct.
      out.cached_keys.push_back({2 * key.model_key + key.family, key.group});
    }
    std::sort(out.cached_keys.begin(), out.cached_keys.end());
    out.cache_bytes = engine.cache_bytes();
    return out;
  };

  // max_outage_lines = 2 adds the peel-threshold calibration, whose
  // thresholds are part of the saved PWDET07 bytes and whose coordinate
  // sets are most of the serving cache Train hands over. Its cases run
  // concurrently at degree > 1, so the cache must come out with the
  // same keys, bytes and build count as the serial pass.
  size_t single_line_keys = 0;
  for (size_t lines : {1u, 2u}) {
    const Trained serial = train(1, lines);
    ASSERT_FALSE(serial.model.empty());
    if (lines == 1) {
      single_line_keys = serial.cached_keys.size();
    } else {
      // The peel calibration warms the serving cache itself.
      EXPECT_GT(serial.cached_keys.size(), single_line_keys);
    }
    ASSERT_FALSE(serial.cached_keys.empty());
    for (size_t degree : {2u, 8u}) {
      const Trained parallel = train(degree, lines);
      EXPECT_EQ(parallel.model, serial.model)
          << "lines=" << lines << " degree=" << degree;
      EXPECT_EQ(parallel.cached_keys, serial.cached_keys)
          << "lines=" << lines << " degree=" << degree;
      EXPECT_EQ(parallel.cache_bytes, serial.cache_bytes)
          << "lines=" << lines << " degree=" << degree;
      EXPECT_EQ(parallel.regressor_builds, serial.regressor_builds)
          << "lines=" << lines << " degree=" << degree;
    }
  }
}

TEST_F(ParallelDeterminismTest, ScenarioMetricsBitIdenticalAcrossDegrees) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());
  auto dataset = BuildDataset(*grid, SmallDatasetOptions(1), 77);
  ASSERT_TRUE(dataset.ok());

  auto run_all = [&](size_t parallelism) {
    ExperimentOptions opts;
    opts.test_samples_per_case = 8;
    opts.parallelism = parallelism;
    auto methods = TrainedMethods::Train(*dataset, opts);
    PW_CHECK(methods.ok());
    std::vector<ScenarioResult> rows;
    for (MissingScenario scenario :
         {MissingScenario::kNone, MissingScenario::kOutageEndpoints,
          MissingScenario::kRandomOnNormal,
          MissingScenario::kRandomOffOutage}) {
      auto row = RunScenario(*dataset, *methods, scenario, opts);
      PW_CHECK(row.ok());
      rows.push_back(std::move(row).value());
    }
    return rows;
  };

  std::vector<ScenarioResult> serial = run_all(1);
  for (size_t degree : {2u, 8u}) {
    std::vector<ScenarioResult> parallel = run_all(degree);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t s = 0; s < serial.size(); ++s) {
      ASSERT_EQ(parallel[s].methods.size(), serial[s].methods.size());
      for (size_t m = 0; m < serial[s].methods.size(); ++m) {
        const MethodResult& want = serial[s].methods[m];
        const MethodResult& got = parallel[s].methods[m];
        EXPECT_EQ(got.method, want.method);
        EXPECT_EQ(got.samples, want.samples)
            << "degree=" << degree << " scenario=" << s;
        // Exact equality: partials merge in case order at every degree.
        EXPECT_EQ(got.identification_accuracy, want.identification_accuracy)
            << "degree=" << degree << " scenario=" << s << " " << want.method;
        EXPECT_EQ(got.false_alarm, want.false_alarm)
            << "degree=" << degree << " scenario=" << s << " " << want.method;
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, ReliabilitySweepBitIdenticalAcrossDegrees) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());
  auto dataset = BuildDataset(*grid, SmallDatasetOptions(1), 77);
  ASSERT_TRUE(dataset.ok());

  const std::vector<double> levels = {0.999, 0.99, 0.95, 0.9};
  auto run = [&](size_t parallelism) {
    ExperimentOptions opts;
    opts.parallelism = parallelism;
    auto methods = TrainedMethods::Train(*dataset, opts);
    PW_CHECK(methods.ok());
    auto points = RunReliabilitySweep(*dataset, *methods, levels,
                                      /*patterns_per_level=*/20, opts);
    PW_CHECK(points.ok());
    return std::move(points).value();
  };

  std::vector<ReliabilityPoint> serial = run(1);
  ASSERT_EQ(serial.size(), levels.size());
  std::vector<ReliabilityPoint> parallel = run(4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].device_availability, serial[i].device_availability);
    EXPECT_EQ(parallel[i].system_reliability, serial[i].system_reliability);
    EXPECT_EQ(parallel[i].effective_false_alarm,
              serial[i].effective_false_alarm);
    EXPECT_EQ(parallel[i].effective_accuracy, serial[i].effective_accuracy);
  }
}

// Two triangles joined by a single bridge line: taking the bridge out
// islands the grid, so BuildDataset must skip it — and must report it in
// deterministic Grid::lines() order at any parallelism, with the other
// cases unshifted.
Result<grid::Grid> BridgeGrid() {
  using grid::Branch;
  using grid::Bus;
  using grid::BusType;
  std::vector<Bus> buses(6);
  for (int i = 0; i < 6; ++i) {
    buses[i].id = i + 1;
    buses[i].type = BusType::kPQ;
    buses[i].pd_mw = 8.0;
    buses[i].qd_mvar = 2.0;
  }
  buses[0].type = BusType::kSlack;
  buses[0].pd_mw = 0.0;
  buses[0].qd_mvar = 0.0;
  buses[0].vm_setpoint = 1.02;

  auto line = [](int from, int to) {
    Branch b;
    b.from_bus = from;
    b.to_bus = to;
    b.r = 0.01;
    b.x = 0.08;
    return b;
  };
  std::vector<Branch> branches = {
      line(1, 2), line(2, 3), line(1, 3),  // triangle A
      line(3, 4),                          // the bridge
      line(4, 5), line(5, 6), line(4, 6),  // triangle B
  };
  return grid::Grid::Create("bridge6", std::move(buses), std::move(branches));
}

TEST_F(ParallelDeterminismTest, IslandingSkipKeepsLineOrderAtAnyDegree) {
  auto grid = BridgeGrid();
  ASSERT_TRUE(grid.ok());
  const grid::LineId bridge(2, 3);  // internal indices of buses 3 and 4
  ASSERT_TRUE(grid->WouldIsland(bridge));

  DatasetOptions dopts = SmallDatasetOptions(1);
  dopts.train_states = 6;
  dopts.test_states = 3;

  auto check = [&](size_t degree) {
    dopts.parallelism = degree;
    auto dataset = BuildDataset(*grid, dopts, 5);
    ASSERT_TRUE(dataset.ok()) << "degree=" << degree;
    // The bridge is skipped, everything else simulates.
    EXPECT_EQ(dataset->skipped_lines,
              std::vector<grid::LineId>{bridge})
        << "degree=" << degree;
    ASSERT_EQ(dataset->outages.size(), grid->lines().size() - 1)
        << "degree=" << degree;
    // Surviving cases keep Grid::lines() order with the bridge removed.
    std::vector<grid::LineId> expected;
    for (const grid::LineId& l : grid->lines()) {
      if (!(l == bridge)) expected.push_back(l);
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(dataset->outages[i].line, expected[i])
          << "degree=" << degree << " case " << i;
    }
  };
  check(1);
  check(4);
}

}  // namespace
}  // namespace phasorwatch::eval
