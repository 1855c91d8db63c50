// Golden regressions: fixed-seed tables (IEEE-14 scenarios and
// cascades, solved outage operating points), byte-compared against the
// checked-in references under tests/golden/. The evaluation pipeline
// and the power flow are bit-deterministic at every parallelism degree,
// so any byte difference is a real behavior change — including an
// uninjected run being perturbed by the fault-injection / screening
// machinery.
//
// After an intentional change, regenerate with
//   PW_UPDATE_GOLDEN=1 ./build/tests/golden_regression_test

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/status.h"
#include "eval/cascade.h"
#include "eval/experiments.h"
#include "grid/grid.h"
#include "grid/ieee_cases.h"
#include "grid/synthetic.h"
#include "powerflow/powerflow.h"

#ifndef PW_GOLDEN_DIR
#error "PW_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

namespace phasorwatch::eval {
namespace {

std::string FormatRow(const char* scenario, const MethodResult& m) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "scenario=%s method=%s ia=%.17g fa=%.17g samples=%zu\n",
                scenario, m.method.c_str(), m.identification_accuracy,
                m.false_alarm, m.samples);
  return buffer;
}

// Byte-compares `actual` with tests/golden/<file>, or rewrites the
// reference (and skips) when PW_UPDATE_GOLDEN is set.
void ExpectMatchesGolden(const std::string& file, const std::string& actual) {
  const std::string path = std::string(PW_GOLDEN_DIR) + "/" + file;
  if (std::getenv("PW_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden reference regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden reference " << path
      << " — run with PW_UPDATE_GOLDEN=1 to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "golden table drifted; if the change is intentional, regenerate "
         "with PW_UPDATE_GOLDEN=1";
}

// One solved operating point per row, at full precision.
std::string FormatSolutionRow(const std::string& scenario,
                              const pf::PowerFlowSolution& sol) {
  double vm_min = sol.vm[0], vm_max = sol.vm[0];
  double va_min = sol.va_rad[0], va_max = sol.va_rad[0];
  for (size_t i = 0; i < sol.vm.size(); ++i) {
    vm_min = std::min(vm_min, sol.vm[i]);
    vm_max = std::max(vm_max, sol.vm[i]);
    va_min = std::min(va_min, sol.va_rad[i]);
    va_max = std::max(va_max, sol.va_rad[i]);
  }
  char buffer[240];
  std::snprintf(buffer, sizeof(buffer),
                "scenario=%s iters=%d slack_p_mw=%.17g vm_min=%.17g "
                "vm_max=%.17g va_spread=%.17g\n",
                scenario.c_str(), sol.iterations, sol.slack_p_mw, vm_min,
                vm_max, va_max - va_min);
  return buffer;
}

TEST(GoldenRegressionTest, Ieee14ScenarioTableIsByteStable) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());

  DatasetOptions dopts;
  dopts.train_states = 8;
  dopts.train_samples_per_state = 6;
  dopts.test_states = 4;
  dopts.test_samples_per_state = 6;
  auto dataset = BuildDataset(*grid, dopts, 4242);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  ExperimentOptions options;
  options.test_samples_per_case = 10;
  options.mlr.epochs = 60;
  auto methods = TrainedMethods::Train(*dataset, options);
  ASSERT_TRUE(methods.ok()) << methods.status().ToString();

  std::string actual =
      "# phasorwatch golden: IEEE-14 scenario table, dataset seed 4242\n"
      "# regenerate: PW_UPDATE_GOLDEN=1 ./build/tests/golden_regression_test\n";
  const struct {
    const char* name;
    MissingScenario scenario;
  } scenarios[] = {
      {"complete", MissingScenario::kNone},
      {"missing_outage", MissingScenario::kOutageEndpoints},
      {"missing_random", MissingScenario::kRandomOffOutage},
  };
  for (const auto& s : scenarios) {
    auto result = RunScenario(*dataset, *methods, s.scenario, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const MethodResult& m : result->methods) {
      actual += FormatRow(s.name, m);
    }
  }

  ExpectMatchesGolden("ieee14_scenarios.txt", actual);
}

// Cascade-lane golden: the three seeded multi-stage scenarios
// (eval::DefaultCascadeScenarios) replayed through a multi-line
// detector (max_outage_lines = 2), per-stage scores printed at full
// precision. The whole chain — staged outage grids, ramped power
// flow, fault injection, bad-data screening, anchored residual peeling,
// debounced sessions — is bit-deterministic, so any byte difference is
// a behavior change in one of those layers.
TEST(GoldenRegressionTest, Ieee14CascadeTableIsByteStable) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());

  DatasetOptions dopts;
  dopts.train_states = 8;
  dopts.train_samples_per_state = 6;
  dopts.test_states = 4;
  dopts.test_samples_per_state = 6;
  auto dataset = BuildDataset(*grid, dopts, 4242);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  ExperimentOptions options;
  options.mlr.epochs = 20;  // baselines unused by the cascade replay
  options.detector.max_outage_lines = 2;
  auto methods = TrainedMethods::Train(*dataset, options);
  ASSERT_TRUE(methods.ok()) << methods.status().ToString();

  std::string actual =
      "# phasorwatch golden: IEEE-14 cascade table, dataset seed 4242\n"
      "# regenerate: PW_UPDATE_GOLDEN=1 ./build/tests/golden_regression_test\n";
  for (const CascadeScenario& scenario : DefaultCascadeScenarios(*dataset)) {
    auto scores = RunCascadeScenario(*dataset, *methods, scenario);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    for (const CascadeStageScore& s : *scores) {
      char buffer[320];
      std::snprintf(
          buffer, sizeof(buffer),
          "scenario=%s stage=%zu:%s samples=%zu ttd=%lld precision=%.17g "
          "recall=%.17g accuracy=%.17g faults=%llu rejected=%llu "
          "screened=%llu\n",
          s.scenario.c_str(), s.stage_index, s.stage.c_str(), s.samples,
          static_cast<long long>(s.time_to_detect), s.set_precision,
          s.set_recall, s.localization_accuracy,
          static_cast<unsigned long long>(s.faults_injected),
          static_cast<unsigned long long>(s.samples_rejected),
          static_cast<unsigned long long>(s.screened_nodes));
      actual += buffer;
    }
  }

  ExpectMatchesGolden("ieee14_cascades.txt", actual);
}

// 300-bus sparse-path golden: the ring-of-meshes generator, the
// outage grids' sparse Ybus (whose reserved zero slots fix the sparse
// LU's ordering), and the sparse Newton-Raphson solver are all
// bit-deterministic, so the solved operating point of a fixed set of
// outage scenarios is byte-stable. This pins the whole sparse stack
// (docs/SPARSE.md) the way the IEEE-14 table pins the detector
// pipeline — at a size the dense path never sees.
TEST(GoldenRegressionTest, Synthetic300SparseOutageTableIsByteStable) {
  auto grid = grid::Synthetic300Bus(1);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  ASSERT_GE(grid->num_buses(), pf::PowerFlowOptions{}.sparse_bus_threshold)
      << "table must exercise the sparse path";

  std::string actual =
      "# phasorwatch golden: synthetic-300 sparse outage table, seed 1\n"
      "# regenerate: PW_UPDATE_GOLDEN=1 ./build/tests/golden_regression_test\n";

  auto base = pf::SolveAcPowerFlow(*grid);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  actual += FormatSolutionRow("base", *base);

  size_t recorded = 0;
  for (const grid::LineId& line : grid->lines()) {
    if (recorded >= 10) break;
    if (grid->WouldIsland(line)) continue;
    auto outage_grid = grid->WithLineOut(line);
    ASSERT_TRUE(outage_grid.ok());
    auto sol = pf::SolveAcPowerFlow(*outage_grid);
    if (!sol.ok()) continue;  // stressed post-outage states may diverge
    actual += FormatSolutionRow("out:" + grid->LineName(line), *sol);
    ++recorded;
  }
  ASSERT_GE(recorded, 5u);

  ExpectMatchesGolden("synthetic300_outages.txt", actual);
}

// Evaluation-system golden: every IEEE grid the paper evaluates on,
// solved at default options (below the sparse threshold: the dense-LU
// factorization) for the base case and every non-islanding single-line
// outage. These are the states the dataset corpus is sampled around,
// pinned at full precision; a case that fails to solve records its
// status code.
TEST(GoldenRegressionTest, EvaluationSystemsOutageTableIsByteStable) {
  std::string actual =
      "# phasorwatch golden: IEEE-14/30/57/118 outage table, default "
      "options\n"
      "# regenerate: PW_UPDATE_GOLDEN=1 ./build/tests/golden_regression_test\n";
  for (int num_buses : {14, 30, 57, 118}) {
    auto grid = grid::EvaluationSystem(num_buses);
    ASSERT_TRUE(grid.ok()) << grid.status().ToString();
    ASSERT_LT(grid->num_buses(), pf::PowerFlowOptions{}.sparse_bus_threshold);
    const std::string prefix = "ieee" + std::to_string(num_buses) + "/";

    auto base = pf::SolveAcPowerFlow(*grid);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    actual += FormatSolutionRow(prefix + "base", *base);

    for (const grid::LineId& line : grid->lines()) {
      if (grid->WouldIsland(line)) continue;
      auto outage_grid = grid->WithLineOut(line);
      ASSERT_TRUE(outage_grid.ok());
      const std::string scenario = prefix + "out:" + grid->LineName(line);
      auto sol = pf::SolveAcPowerFlow(*outage_grid);
      if (sol.ok()) {
        actual += FormatSolutionRow(scenario, *sol);
      } else {
        actual += "scenario=" + scenario + " status=" +
                  StatusCodeName(sol.status().code()) + "\n";
      }
    }
  }
  ExpectMatchesGolden("evaluation_outages.txt", actual);
}

}  // namespace
}  // namespace phasorwatch::eval
