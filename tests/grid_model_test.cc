#include "grid/grid.h"

#include <gtest/gtest.h>

namespace phasorwatch::grid {
namespace {

Bus SimpleBus(int id, BusType type = BusType::kPQ) {
  Bus b;
  b.id = id;
  b.type = type;
  return b;
}

Branch SimpleBranch(int from, int to, double x = 0.1) {
  Branch br;
  br.from_bus = from;
  br.to_bus = to;
  br.r = 0.01;
  br.x = x;
  return br;
}

// Triangle grid: 1 (slack) - 2 - 3 - 1.
Result<Grid> Triangle() {
  return Grid::Create(
      "triangle",
      {SimpleBus(1, BusType::kSlack), SimpleBus(2), SimpleBus(3)},
      {SimpleBranch(1, 2), SimpleBranch(2, 3), SimpleBranch(3, 1)});
}

TEST(GridTest, CreateValidGrid) {
  auto grid = Triangle();
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->num_buses(), 3u);
  EXPECT_EQ(grid->num_branches(), 3u);
  EXPECT_EQ(grid->num_lines(), 3u);
  EXPECT_TRUE(grid->IsConnected());
}

TEST(GridTest, RejectsDuplicateBusIds) {
  auto grid = Grid::Create(
      "dup", {SimpleBus(1, BusType::kSlack), SimpleBus(1)},
      {SimpleBranch(1, 1)});
  EXPECT_FALSE(grid.ok());
}

TEST(GridTest, RejectsMissingSlack) {
  auto grid =
      Grid::Create("noslack", {SimpleBus(1), SimpleBus(2)},
                   {SimpleBranch(1, 2)});
  EXPECT_FALSE(grid.ok());
}

TEST(GridTest, RejectsTwoSlacks) {
  auto grid = Grid::Create(
      "twoslack",
      {SimpleBus(1, BusType::kSlack), SimpleBus(2, BusType::kSlack)},
      {SimpleBranch(1, 2)});
  EXPECT_FALSE(grid.ok());
}

TEST(GridTest, RejectsUnknownBusInBranch) {
  auto grid = Grid::Create("bad", {SimpleBus(1, BusType::kSlack), SimpleBus(2)},
                           {SimpleBranch(1, 9)});
  EXPECT_FALSE(grid.ok());
}

TEST(GridTest, RejectsSelfLoop) {
  auto grid = Grid::Create("self", {SimpleBus(1, BusType::kSlack), SimpleBus(2)},
                           {SimpleBranch(1, 2), SimpleBranch(2, 2)});
  EXPECT_FALSE(grid.ok());
}

TEST(GridTest, RejectsNonPositiveReactance) {
  auto grid = Grid::Create("zerox", {SimpleBus(1, BusType::kSlack), SimpleBus(2)},
                           {SimpleBranch(1, 2, 0.0)});
  EXPECT_FALSE(grid.ok());
}

TEST(GridTest, RejectsDisconnectedTopology) {
  auto grid = Grid::Create(
      "disc",
      {SimpleBus(1, BusType::kSlack), SimpleBus(2), SimpleBus(3), SimpleBus(4)},
      {SimpleBranch(1, 2), SimpleBranch(3, 4)});
  EXPECT_FALSE(grid.ok());
}

TEST(GridTest, BusIndexLookup) {
  auto grid = Triangle();
  ASSERT_TRUE(grid.ok());
  auto idx = grid->BusIndex(2);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(grid->bus(*idx).id, 2);
  EXPECT_FALSE(grid->BusIndex(99).ok());
}

TEST(GridTest, NeighborsOfTriangle) {
  auto grid = Triangle();
  ASSERT_TRUE(grid.ok());
  const auto& nb = grid->Neighbors(0);
  EXPECT_EQ(nb.size(), 2u);
}

TEST(GridTest, LineIdNormalizesEndpoints) {
  LineId a(3, 1);
  EXPECT_EQ(a.i, 1u);
  EXPECT_EQ(a.j, 3u);
  EXPECT_EQ(a, LineId(1, 3));
}

TEST(GridTest, WouldIslandOnBridge) {
  // Path grid 1 - 2 - 3: every line is a bridge.
  auto grid = Grid::Create(
      "path", {SimpleBus(1, BusType::kSlack), SimpleBus(2), SimpleBus(3)},
      {SimpleBranch(1, 2), SimpleBranch(2, 3)});
  ASSERT_TRUE(grid.ok());
  EXPECT_TRUE(grid->WouldIsland(LineId(0, 1)));
  EXPECT_TRUE(grid->WouldIsland(LineId(1, 2)));
}

TEST(GridTest, TriangleHasNoBridges) {
  auto grid = Triangle();
  ASSERT_TRUE(grid.ok());
  for (const LineId& line : grid->lines()) {
    EXPECT_FALSE(grid->WouldIsland(line));
  }
}

TEST(GridTest, WithLineOutRemovesLine) {
  auto grid = Triangle();
  ASSERT_TRUE(grid.ok());
  auto out = grid->WithLineOut(LineId(0, 1));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_lines(), 2u);
  EXPECT_TRUE(out->IsConnected());
  // Original untouched.
  EXPECT_EQ(grid->num_lines(), 3u);
}

TEST(GridTest, WithLineOutRefusesIslanding) {
  auto grid = Grid::Create(
      "path", {SimpleBus(1, BusType::kSlack), SimpleBus(2), SimpleBus(3)},
      {SimpleBranch(1, 2), SimpleBranch(2, 3)});
  ASSERT_TRUE(grid.ok());
  auto out = grid->WithLineOut(LineId(0, 1));
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kIslanded);
}

TEST(GridTest, WithLineOutUnknownLine) {
  auto grid = Triangle();
  ASSERT_TRUE(grid.ok());
  auto out = grid->WithLineOut(LineId(0, 0));
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST(GridTest, ParallelBranchesCollapseToOneLine) {
  auto grid = Grid::Create(
      "parallel",
      {SimpleBus(1, BusType::kSlack), SimpleBus(2), SimpleBus(3)},
      {SimpleBranch(1, 2), SimpleBranch(1, 2), SimpleBranch(2, 3),
       SimpleBranch(3, 1)});
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->num_branches(), 4u);
  EXPECT_EQ(grid->num_lines(), 3u);
  // Removing the line takes out both parallel branches.
  auto out = grid->WithLineOut(LineId(0, 1));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_lines(), 2u);
}

TEST(GridTest, AdmittanceMatrixRowSumsZeroWithoutShunts) {
  auto grid = Triangle();
  ASSERT_TRUE(grid.ok());
  auto ybus = grid->BuildAdmittanceMatrix();
  // Without shunts/charging, each row sums to ~0 (Laplacian structure).
  for (size_t i = 0; i < 3; ++i) {
    linalg::Complex sum = 0.0;
    for (size_t j = 0; j < 3; ++j) sum += ybus(i, j);
    EXPECT_NEAR(std::abs(sum), 0.0, 1e-12);
  }
}

TEST(GridTest, AdmittanceMatrixSymmetricWithoutPhaseShifters) {
  auto grid = Triangle();
  ASSERT_TRUE(grid.ok());
  auto ybus = grid->BuildAdmittanceMatrix();
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(std::abs(ybus(i, j) - ybus(j, i)), 0.0, 1e-12);
    }
  }
}

TEST(GridTest, ShuntAppearsOnDiagonal) {
  std::vector<Bus> buses = {SimpleBus(1, BusType::kSlack), SimpleBus(2)};
  buses[1].bs_mvar = 19.0;  // 0.19 pu at base 100
  auto grid = Grid::Create("shunt", buses, {SimpleBranch(1, 2)});
  ASSERT_TRUE(grid.ok());
  auto ybus = grid->BuildAdmittanceMatrix();
  auto ybus_ref =
      Grid::Create("noshunt", {SimpleBus(1, BusType::kSlack), SimpleBus(2)},
                   {SimpleBranch(1, 2)})
          ->BuildAdmittanceMatrix();
  EXPECT_NEAR(ybus(1, 1).imag() - ybus_ref(1, 1).imag(), 0.19, 1e-12);
}

TEST(GridTest, SusceptanceLaplacianProperties) {
  auto grid = Triangle();
  ASSERT_TRUE(grid.ok());
  auto lap = grid->BuildSusceptanceLaplacian();
  // Symmetric, zero row sums, positive diagonal.
  for (size_t i = 0; i < 3; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < 3; ++j) {
      row_sum += lap(i, j);
      EXPECT_DOUBLE_EQ(lap(i, j), lap(j, i));
    }
    EXPECT_NEAR(row_sum, 0.0, 1e-12);
    EXPECT_GT(lap(i, i), 0.0);
  }
}

TEST(GridTest, LoadAndGenTotals) {
  std::vector<Bus> buses = {SimpleBus(1, BusType::kSlack), SimpleBus(2)};
  buses[0].pg_mw = 50.0;
  buses[1].pd_mw = 45.0;
  auto grid = Grid::Create("totals", buses, {SimpleBranch(1, 2)});
  ASSERT_TRUE(grid.ok());
  EXPECT_DOUBLE_EQ(grid->TotalGenMw(), 50.0);
  EXPECT_DOUBLE_EQ(grid->TotalLoadMw(), 45.0);
}

TEST(GridTest, LineNameUsesExternalIds) {
  auto grid = Triangle();
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->LineName(LineId(0, 2)), "line 1-3");
}

}  // namespace
}  // namespace phasorwatch::grid
