#include "io/matpower.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz_mutations.h"
#include "grid/ieee_cases.h"
#include "powerflow/powerflow.h"

namespace phasorwatch::io {
namespace {

// Minimal three-bus case in MATPOWER layout (hand-written fixture).
constexpr char kThreeBusCase[] = R"(function mpc = case3
% small test fixture
mpc.version = '2';
mpc.baseMVA = 100;

%% bus data
mpc.bus = [
    1  3  0    0   0  0  1  1.04  0  138  1  1.1  0.9;
    2  2  20   10  0  0  1  1.02  0  138  1  1.1  0.9;
    3  1  45   15  0  5  1  1.00  0  138  1  1.1  0.9;
];

%% generator data
mpc.gen = [
    1  40  0  100  -100  1.04  100  1  200  0;
    2  30  5  100  -100  1.02  100  1  200  0;
    2  10  0  100  -100  0     100  0  200  0;  % out of service
];

%% branch data
mpc.branch = [
    1  2  0.01  0.05  0.02  0  0  0  0     0  1;
    2  3  0.02  0.08  0.01  0  0  0  0     0  1;
    1  3  0.015 0.06  0.0   0  0  0  0.98  0  1;
];
)";

TEST(MatpowerParseTest, ParsesThreeBusFixture) {
  auto grid = ParseMatpowerCase(kThreeBusCase, "case3");
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(grid->num_buses(), 3u);
  EXPECT_EQ(grid->num_branches(), 3u);
  EXPECT_DOUBLE_EQ(grid->base_mva(), 100.0);
  EXPECT_EQ(grid->bus(grid->SlackBus()).id, 1);
}

TEST(MatpowerParseTest, BusFieldsMapped) {
  auto grid = ParseMatpowerCase(kThreeBusCase);
  ASSERT_TRUE(grid.ok());
  auto idx = grid->BusIndex(3);
  ASSERT_TRUE(idx.ok());
  const grid::Bus& bus = grid->bus(*idx);
  EXPECT_EQ(bus.type, grid::BusType::kPQ);
  EXPECT_DOUBLE_EQ(bus.pd_mw, 45.0);
  EXPECT_DOUBLE_EQ(bus.qd_mvar, 15.0);
  EXPECT_DOUBLE_EQ(bus.bs_mvar, 5.0);
  EXPECT_DOUBLE_EQ(bus.base_kv, 138.0);
}

TEST(MatpowerParseTest, GeneratorsFoldIntoBuses) {
  auto grid = ParseMatpowerCase(kThreeBusCase);
  ASSERT_TRUE(grid.ok());
  auto idx = grid->BusIndex(2);
  ASSERT_TRUE(idx.ok());
  const grid::Bus& bus = grid->bus(*idx);
  // In-service generator only; the STATUS=0 unit is skipped.
  EXPECT_DOUBLE_EQ(bus.pg_mw, 30.0);
  EXPECT_DOUBLE_EQ(bus.vm_setpoint, 1.02);
}

TEST(MatpowerParseTest, BranchFieldsMapped) {
  auto grid = ParseMatpowerCase(kThreeBusCase);
  ASSERT_TRUE(grid.ok());
  const grid::Branch& tap_branch = grid->branches()[2];
  EXPECT_EQ(tap_branch.from_bus, 1);
  EXPECT_EQ(tap_branch.to_bus, 3);
  EXPECT_DOUBLE_EQ(tap_branch.tap, 0.98);
  EXPECT_TRUE(tap_branch.in_service);
}

TEST(MatpowerParseTest, ParsedCaseSolves) {
  auto grid = ParseMatpowerCase(kThreeBusCase);
  ASSERT_TRUE(grid.ok());
  auto sol = pf::SolveAcPowerFlow(*grid);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_LT(sol->final_mismatch, 1e-8);
}

TEST(MatpowerParseTest, RejectsMissingBusMatrix) {
  EXPECT_FALSE(ParseMatpowerCase("mpc.baseMVA = 100;").ok());
}

TEST(MatpowerParseTest, RejectsRaggedRows) {
  std::string bad = R"(
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 138 1 1.1 0.9;
  2 1 10;
];
mpc.branch = [ 1 2 0.01 0.05 0; ];
)";
  auto grid = ParseMatpowerCase(bad);
  EXPECT_FALSE(grid.ok());
  EXPECT_EQ(grid.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatpowerParseTest, RejectsNonNumericToken) {
  std::string bad = R"(
mpc.bus = [ 1 3 zero 0 0 0 1 1.0 0 138 1 1.1 0.9; ];
mpc.branch = [ 1 1 0.01 0.05 0; ];
)";
  EXPECT_FALSE(ParseMatpowerCase(bad).ok());
}

TEST(MatpowerParseTest, RejectsUnknownGeneratorBus) {
  std::string bad = std::string(kThreeBusCase);
  bad.replace(bad.find("    1  40"), 9, "    9  40");
  auto grid = ParseMatpowerCase(bad);
  EXPECT_FALSE(grid.ok());
}

// strtod reads "nan" and "inf", and a NaN slips past `x <= 0`-style
// checks. Such values must be rejected, not loaded into a grid.
TEST(MatpowerParseTest, RejectsNonFiniteBaseAndImpedance) {
  auto with = [](const std::string& from, const std::string& to) {
    std::string text = kThreeBusCase;
    size_t at = text.find(from);
    PW_CHECK(at != std::string::npos);
    return text.replace(at, from.size(), to);
  };
  const std::string bad_cases[] = {
      with("mpc.baseMVA = 100", "mpc.baseMVA = nan"),
      with("mpc.baseMVA = 100", "mpc.baseMVA = inf"),
      with("1  2  0.01  0.05", "1  2  0.01  nan"),  // reactance
      with("1  2  0.01  0.05", "1  2  nan   0.05"),  // resistance
  };
  for (const std::string& text : bad_cases) {
    auto grid = ParseMatpowerCase(text);
    EXPECT_EQ(grid.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(MatpowerParseTest, CommentsAndBlankLinesIgnored) {
  std::string commented = std::string("% leading comment\n") + kThreeBusCase;
  EXPECT_TRUE(ParseMatpowerCase(commented).ok());
}

class MatpowerRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(MatpowerRoundTripTest, WriteParsePreservesCase) {
  auto original = grid::EvaluationSystem(GetParam());
  ASSERT_TRUE(original.ok());
  std::string serialized = WriteMatpowerCase(*original);
  auto reparsed = ParseMatpowerCase(serialized, original->name());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();

  ASSERT_EQ(reparsed->num_buses(), original->num_buses());
  ASSERT_EQ(reparsed->num_branches(), original->num_branches());
  EXPECT_DOUBLE_EQ(reparsed->base_mva(), original->base_mva());
  for (size_t i = 0; i < original->num_buses(); ++i) {
    const grid::Bus& a = original->bus(i);
    const grid::Bus& b = reparsed->bus(i);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.type, b.type);
    EXPECT_NEAR(a.pd_mw, b.pd_mw, 1e-9);
    EXPECT_NEAR(a.pg_mw, b.pg_mw, 1e-9);
    EXPECT_NEAR(a.bs_mvar, b.bs_mvar, 1e-9);
  }
  for (size_t k = 0; k < original->num_branches(); ++k) {
    const grid::Branch& a = original->branches()[k];
    const grid::Branch& b = reparsed->branches()[k];
    EXPECT_EQ(a.from_bus, b.from_bus);
    EXPECT_EQ(a.to_bus, b.to_bus);
    EXPECT_NEAR(a.x, b.x, 1e-9);
    EXPECT_NEAR(a.tap, b.tap, 1e-9);
  }
}

TEST_P(MatpowerRoundTripTest, RoundTripSolvesIdentically) {
  auto original = grid::EvaluationSystem(GetParam());
  ASSERT_TRUE(original.ok());
  auto reparsed =
      ParseMatpowerCase(WriteMatpowerCase(*original), original->name());
  ASSERT_TRUE(reparsed.ok());
  auto sol_a = pf::SolveAcPowerFlow(*original);
  auto sol_b = pf::SolveAcPowerFlow(*reparsed);
  ASSERT_TRUE(sol_a.ok());
  ASSERT_TRUE(sol_b.ok());
  for (size_t i = 0; i < original->num_buses(); ++i) {
    EXPECT_NEAR(sol_a->vm[i], sol_b->vm[i], 1e-8);
    EXPECT_NEAR(sol_a->va_rad[i], sol_b->va_rad[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, MatpowerRoundTripTest,
                         ::testing::Values(14, 30, 57));

TEST(MatpowerFileTest, SaveAndLoad) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());
  std::string path = ::testing::TempDir() + "/pw_case14.m";
  ASSERT_TRUE(SaveMatpowerCase(*grid, path).ok());
  auto loaded = LoadMatpowerCase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_buses(), 14u);
  EXPECT_EQ(loaded->name(), "pw_case14");
  std::remove(path.c_str());
}

TEST(MatpowerFileTest, LoadMissingFileFails) {
  auto loaded = LoadMatpowerCase("/nonexistent/case.m");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// Mutation replay: the parser reads outside bytes, so on any input it
// must return a Status or a connected Grid, never abort or touch memory
// it does not own (the ASan and UBSan suite lanes run this too).
std::vector<std::string> FuzzCorpus() {
  std::vector<std::string> corpus = {kThreeBusCase};
  for (int system : {14, 30}) {
    auto grid = grid::EvaluationSystem(system);
    PW_CHECK(grid.ok());
    corpus.push_back(WriteMatpowerCase(*grid));
  }
  return corpus;
}

void ExpectStatusOrConnectedGrid(const std::string& input) {
  auto grid = ParseMatpowerCase(input);
  if (grid.ok()) {
    EXPECT_TRUE(grid->IsConnected()) << "input:\n" << input;
  } else {
    EXPECT_FALSE(grid.status().message().empty());
  }
}

TEST(MatpowerFuzzReplayTest, EveryTruncatedPrefix) {
  for (const std::string& text : FuzzCorpus()) {
    for (size_t len = 0; len <= text.size(); ++len) {
      ExpectStatusOrConnectedGrid(text.substr(0, len));
    }
  }
}

TEST(MatpowerFuzzReplayTest, SeededMutations) {
  const std::vector<std::string> corpus = FuzzCorpus();
  constexpr uint64_t kSeed = 0x6d61747077ULL;
  constexpr uint64_t kMutations = 2000;
  for (uint64_t stream = 0; stream < kMutations; ++stream) {
    SCOPED_TRACE("mutation stream " + std::to_string(stream));
    ExpectStatusOrConnectedGrid(MutateCorpus(corpus, kSeed, stream));
  }
}

}  // namespace
}  // namespace phasorwatch::io
