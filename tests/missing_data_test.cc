#include "sim/missing_data.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "grid/ieee_cases.h"

namespace phasorwatch::sim {
namespace {

TEST(MissingMaskTest, NoneIsEmpty) {
  MissingMask m = MissingMask::None(10);
  EXPECT_EQ(m.size(), 10u);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.AvailableIndices().size(), 10u);
  EXPECT_TRUE(m.MissingIndices().empty());
}

TEST(MissingMaskTest, IndexPartition) {
  MissingMask m = MissingMask::None(5);
  m.missing[1] = true;
  m.missing[4] = true;
  EXPECT_EQ(m.count(), 2u);
  auto avail = m.AvailableIndices();
  auto missing = m.MissingIndices();
  EXPECT_EQ(avail, (std::vector<size_t>{0, 2, 3}));
  EXPECT_EQ(missing, (std::vector<size_t>{1, 4}));
}

TEST(MissingAtOutageTest, MarksBothEndpoints) {
  MissingMask m = MissingAtOutage(14, grid::LineId(3, 7));
  EXPECT_EQ(m.count(), 2u);
  EXPECT_TRUE(m.missing[3]);
  EXPECT_TRUE(m.missing[7]);
}

TEST(MissingRandomTest, RespectsCountAndExclusions) {
  Rng rng(1);
  std::vector<size_t> exclude = {0, 1, 2};
  for (int trial = 0; trial < 50; ++trial) {
    MissingMask m = MissingRandom(20, 5, exclude, rng);
    EXPECT_EQ(m.count(), 5u);
    for (size_t e : exclude) EXPECT_FALSE(m.missing[e]);
  }
}

TEST(MissingRandomTest, CountClampedToEligible) {
  Rng rng(2);
  std::vector<size_t> exclude = {0, 1};
  MissingMask m = MissingRandom(4, 10, exclude, rng);
  EXPECT_EQ(m.count(), 2u);  // only nodes 2 and 3 eligible
}

TEST(MissingRandomTest, CoversAllEligibleNodesOverTrials) {
  Rng rng(3);
  std::vector<bool> ever(10, false);
  for (int trial = 0; trial < 200; ++trial) {
    MissingMask m = MissingRandom(10, 2, {}, rng);
    for (size_t i = 0; i < 10; ++i) {
      if (m.missing[i]) ever[i] = true;
    }
  }
  EXPECT_TRUE(std::all_of(ever.begin(), ever.end(), [](bool b) { return b; }));
}

TEST(MissingClusterTest, WholePdcGoesDark) {
  auto grid = grid::IeeeCase30();
  ASSERT_TRUE(grid.ok());
  auto net = PmuNetwork::Build(*grid, 3);
  ASSERT_TRUE(net.ok());
  MissingMask m = MissingCluster(*net, 1);
  EXPECT_EQ(m.count(), net->Cluster(1).size());
  for (size_t node : net->Cluster(1)) EXPECT_TRUE(m.missing[node]);
  for (size_t node : net->Cluster(0)) EXPECT_FALSE(m.missing[node]);
}

TEST(MissingFromReliabilityTest, PerfectReliabilityNeverMissing) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());
  auto net = PmuNetwork::Build(*grid, 2);
  ASSERT_TRUE(net.ok());
  PmuReliability rel;
  rel.r_pmu = 1.0;
  rel.r_link = 1.0;
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    EXPECT_EQ(MissingFromReliability(*net, rel, rng).count(), 0u);
  }
}

TEST(MissingFromReliabilityTest, LowReliabilityDropsMost) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());
  auto net = PmuNetwork::Build(*grid, 2);
  ASSERT_TRUE(net.ok());
  PmuReliability rel;
  rel.r_pmu = 0.05;
  rel.r_link = 1.0;
  Rng rng(5);
  size_t missing = 0, total = 0;
  for (int trial = 0; trial < 500; ++trial) {
    MissingMask m = MissingFromReliability(*net, rel, rng);
    missing += m.count();
    total += m.size();
  }
  EXPECT_NEAR(static_cast<double>(missing) / static_cast<double>(total), 0.95,
              0.02);
}

}  // namespace
}  // namespace phasorwatch::sim
