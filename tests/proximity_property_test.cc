// Property tests for the Eq. 9 missing-data proximity regressor:
// randomized detection groups over a learned subspace model, checking
// the invariants the detector relies on rather than specific values.

#include "detect/proximity.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "detect/subspace_model.h"
#include "grid/ieee_cases.h"
#include "sim/measurement.h"

namespace phasorwatch::detect {
namespace {

class ProximityPropertyTest : public ::testing::Test {
 protected:
  struct Shared {
    SubspaceModel model;
    std::vector<linalg::Vector> samples;  ///< feature vectors (ambient dim)
  };
  static Shared* shared_;

  static void SetUpTestSuite() {
    auto grid = grid::IeeeCase14();
    PW_CHECK(grid.ok());
    sim::SimulationOptions sim_opts;
    sim_opts.load.num_states = 16;
    sim_opts.samples_per_state = 8;
    Rng rng(515);
    auto train = sim::SimulateMeasurements(*grid, sim_opts, rng);
    PW_CHECK(train.ok());
    auto test = sim::SimulateMeasurements(*grid, sim_opts, rng);
    PW_CHECK(test.ok());

    auto model = LearnSubspaceModel(FeatureMatrix(*train), {});
    PW_CHECK_MSG(model.ok(), model.status().ToString().c_str());

    shared_ = new Shared{std::move(model).value(), {}};
    for (size_t t = 0; t < 32; ++t) {
      auto [vm, va] = test->Sample(t);
      shared_->samples.push_back(FeatureVector(vm, va));
    }
  }

  static void TearDownTestSuite() {
    delete shared_;
    shared_ = nullptr;
  }

  /// A sorted random coordinate subset of size in [1, ambient].
  static std::vector<size_t> RandomGroup(Rng& rng) {
    const size_t ambient = shared_->model.ambient_dim();
    const size_t count =
        1 + static_cast<size_t>(rng.UniformInt(ambient));
    std::vector<bool> in(ambient, false);
    size_t chosen = 0;
    while (chosen < count) {
      size_t idx = static_cast<size_t>(rng.UniformInt(ambient));
      if (in[idx]) continue;
      in[idx] = true;
      ++chosen;
    }
    std::vector<size_t> group;
    for (size_t i = 0; i < ambient; ++i) {
      if (in[i]) group.push_back(i);
    }
    return group;
  }
};

ProximityPropertyTest::Shared* ProximityPropertyTest::shared_ = nullptr;

TEST_F(ProximityPropertyTest, RandomGroupsYieldFiniteNonNegativeProximity) {
  ProximityEngine engine;
  Rng rng(1); // pw-lint: allow(rng-discipline) test-local stream
  for (size_t trial = 0; trial < 100; ++trial) {
    const auto& sample = shared_->samples[trial % shared_->samples.size()];
    auto group = RandomGroup(rng);
    auto prox = engine.Evaluate(shared_->model, /*model_key=*/1, sample, group);
    ASSERT_TRUE(prox.ok()) << prox.status().ToString();
    EXPECT_TRUE(std::isfinite(*prox));
    EXPECT_GE(*prox, 0.0);
  }
}

TEST_F(ProximityPropertyTest, RestrictedProximityNeverExceedsComplete) {
  // Eq. 9 minimizes the residual over completions of the hidden
  // coordinates; the true sample is one such completion, so the
  // restricted proximity is bounded by the complete one.
  ProximityEngine engine;
  Rng rng(2); // pw-lint: allow(rng-discipline) test-local stream
  for (size_t trial = 0; trial < 100; ++trial) {
    const auto& sample = shared_->samples[trial % shared_->samples.size()];
    double complete = shared_->model.Proximity(sample);
    auto group = RandomGroup(rng);
    auto prox = engine.Evaluate(shared_->model, 1, sample, group);
    ASSERT_TRUE(prox.ok());
    EXPECT_LE(*prox, complete * (1.0 + 1e-9) + 1e-12);
  }
}

TEST_F(ProximityPropertyTest, FullGroupMatchesCompleteEvaluation) {
  // The empty-mask case: with every coordinate trusted the regressor
  // reduces to the plain constraint violation.
  ProximityEngine engine;
  std::vector<size_t> all(shared_->model.ambient_dim());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (const auto& sample : shared_->samples) {
    double complete = shared_->model.Proximity(sample);
    auto prox = engine.Evaluate(shared_->model, 1, sample, all);
    ASSERT_TRUE(prox.ok());
    EXPECT_NEAR(*prox, complete, 1e-9 * (1.0 + complete));
  }
}

TEST_F(ProximityPropertyTest, TrainingMeanHasZeroProximityUnderAnyGroup) {
  ProximityEngine engine;
  Rng rng(3); // pw-lint: allow(rng-discipline) test-local stream
  for (size_t trial = 0; trial < 20; ++trial) {
    auto group = RandomGroup(rng);
    auto prox = engine.Evaluate(shared_->model, 1, shared_->model.mean, group);
    ASSERT_TRUE(prox.ok());
    EXPECT_DOUBLE_EQ(*prox, 0.0);
  }
}

TEST_F(ProximityPropertyTest, EvaluationIsDeterministicAcrossCaches) {
  ProximityEngine engine;
  ProximityEngine fresh_engine;
  Rng rng(4); // pw-lint: allow(rng-discipline) test-local stream
  for (size_t trial = 0; trial < 20; ++trial) {
    const auto& sample = shared_->samples[trial % shared_->samples.size()];
    auto group = RandomGroup(rng);
    auto first = engine.Evaluate(shared_->model, 1, sample, group);
    auto cached = engine.Evaluate(shared_->model, 1, sample, group);
    auto rebuilt = fresh_engine.Evaluate(shared_->model, 1, sample, group);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(*first, *cached);   // shared-cache replay is bitwise stable
    EXPECT_EQ(*first, *rebuilt);  // an independent cold build agrees
  }
}

TEST_F(ProximityPropertyTest, MalformedQueriesReturnStatus) {
  ProximityEngine engine;
  auto empty = engine.Evaluate(shared_->model, 1, shared_->samples[0], {});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kDataMissing);

  linalg::Vector short_sample(3);
  auto mismatch = engine.Evaluate(shared_->model, 1, short_sample, {0, 1});
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace phasorwatch::detect
