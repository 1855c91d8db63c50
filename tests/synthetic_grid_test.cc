#include "grid/synthetic.h"

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "grid/ieee_cases.h"

namespace phasorwatch::grid {
namespace {

// FNV-1a over the bit pattern of every Bus and Branch field.
class GridDigest {
 public:
  void Add(uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void Add(double x) {
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    Add(bits);
  }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(const Grid& grid) {
    Add(uint64_t{grid.num_buses()});
    for (const Bus& b : grid.buses()) {
      Add(b.id);
      Add(static_cast<int>(b.type));
      for (double v : {b.pd_mw, b.qd_mvar, b.gs_mw, b.bs_mvar, b.pg_mw,
                       b.qg_mvar, b.vm_setpoint, b.base_kv, b.qmax_mvar,
                       b.qmin_mvar}) {
        Add(v);
      }
    }
    Add(uint64_t{grid.num_branches()});
    for (const Branch& br : grid.branches()) {
      Add(br.from_bus);
      Add(br.to_bus);
      for (double v : {br.r, br.x, br.b, br.tap, br.shift_deg}) Add(v);
      Add(uint64_t{br.in_service});
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

uint64_t DigestOf(const Result<Grid>& grid) {
  PW_CHECK(grid.ok());
  GridDigest d;
  d.Add(*grid);
  return d.value();
}

// Every synthetic preset the goldens, benchmarks and scale studies run
// on, pinned bit for bit: a change to the generator's construction or
// its draw order must show here first.
TEST(SyntheticGridTest, PresetBytesArePinned) {
  EXPECT_EQ(DigestOf(IeeeCase57()), 0xD1642C11E418A264ull);
  EXPECT_EQ(DigestOf(IeeeCase118()), 0x80A34D2E50A40911ull);
  EXPECT_EQ(DigestOf(Synthetic300Bus(1)), 0x6631FE0147F9ABE2ull);
  EXPECT_EQ(DigestOf(Synthetic1000Bus(1)), 0xC8F6D84F178565A8ull);
}

TEST(SyntheticGridTest, ProducesRequestedShape) {
  SyntheticGridOptions opts;
  opts.num_buses = 40;
  opts.num_lines = 60;
  opts.seed = 7;
  auto grid = BuildSyntheticGrid(opts);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->num_buses(), 40u);
  EXPECT_EQ(grid->num_lines(), 60u);
  EXPECT_TRUE(grid->IsConnected());
}

TEST(SyntheticGridTest, RejectsTooFewBuses) {
  SyntheticGridOptions opts;
  opts.num_buses = 2;
  opts.num_lines = 3;
  EXPECT_FALSE(BuildSyntheticGrid(opts).ok());
}

TEST(SyntheticGridTest, RejectsTreeBudget) {
  SyntheticGridOptions opts;
  opts.num_buses = 10;
  opts.num_lines = 9;  // fewer than buses: not meshed
  EXPECT_FALSE(BuildSyntheticGrid(opts).ok());
}

TEST(SyntheticGridTest, RejectsTooManyLines) {
  SyntheticGridOptions opts;
  opts.num_buses = 5;
  opts.num_lines = 11;  // > 5*4/2
  EXPECT_FALSE(BuildSyntheticGrid(opts).ok());
}

TEST(SyntheticGridTest, DeterministicBySeed) {
  SyntheticGridOptions opts;
  opts.num_buses = 20;
  opts.num_lines = 30;
  opts.seed = 99;
  auto a = BuildSyntheticGrid(opts);
  auto b = BuildSyntheticGrid(opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->num_buses(); ++i) {
    EXPECT_DOUBLE_EQ(a->bus(i).pd_mw, b->bus(i).pd_mw);
  }
}

TEST(SyntheticGridTest, DifferentSeedsDiffer) {
  SyntheticGridOptions a_opts, b_opts;
  a_opts.num_buses = b_opts.num_buses = 20;
  a_opts.num_lines = b_opts.num_lines = 30;
  a_opts.seed = 1;
  b_opts.seed = 2;
  auto a = BuildSyntheticGrid(a_opts);
  auto b = BuildSyntheticGrid(b_opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bool any_diff = false;
  for (size_t k = 0; k < a->num_branches(); ++k) {
    if (a->branches()[k].from_bus != b->branches()[k].from_bus ||
        a->branches()[k].x != b->branches()[k].x) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticGridTest, GenerationCoversLoad) {
  SyntheticGridOptions opts;
  opts.num_buses = 57;
  opts.num_lines = 80;
  opts.seed = 5757;
  auto grid = BuildSyntheticGrid(opts);
  ASSERT_TRUE(grid.ok());
  EXPECT_GT(grid->TotalLoadMw(), 0.0);
  EXPECT_GT(grid->TotalGenMw(), 0.9 * grid->TotalLoadMw());
}

TEST(SyntheticGridTest, HasExactlyOneSlack) {
  SyntheticGridOptions opts;
  opts.num_buses = 25;
  opts.num_lines = 38;
  auto grid = BuildSyntheticGrid(opts);
  ASSERT_TRUE(grid.ok());
  size_t slacks = 0;
  for (const Bus& b : grid->buses()) {
    if (b.type == BusType::kSlack) ++slacks;
  }
  EXPECT_EQ(slacks, 1u);
}

TEST(SyntheticGridTest, ElectricalParametersRealistic) {
  SyntheticGridOptions opts;
  opts.num_buses = 30;
  opts.num_lines = 45;
  auto grid = BuildSyntheticGrid(opts);
  ASSERT_TRUE(grid.ok());
  for (const Branch& br : grid->branches()) {
    EXPECT_GT(br.x, 0.0);
    EXPECT_LT(br.x, 2.0);
    EXPECT_GE(br.r, 0.0);
    EXPECT_LT(br.r, br.x);  // transmission lines: X dominates R
  }
}

TEST(RingOfMeshesTest, Preset300HasExpectedShape) {
  auto grid = Synthetic300Bus();
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(grid->num_buses(), 300u);
  EXPECT_TRUE(grid->IsConnected());
  // Average degree stays transmission-like (~3) regardless of scale.
  double avg_degree = 2.0 * static_cast<double>(grid->num_lines()) / 300.0;
  EXPECT_GT(avg_degree, 2.2);
  EXPECT_LT(avg_degree, 4.0);
  size_t slacks = 0;
  for (size_t i = 0; i < grid->num_buses(); ++i) {
    if (grid->bus(i).type == BusType::kSlack) ++slacks;
  }
  EXPECT_EQ(slacks, 1u);
}

TEST(RingOfMeshesTest, Preset1000Builds) {
  auto grid = Synthetic1000Bus();
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(grid->num_buses(), 1000u);
  EXPECT_TRUE(grid->IsConnected());
}

TEST(RingOfMeshesTest, DeterministicBySeed) {
  auto a = Synthetic300Bus(5);
  auto b = Synthetic300Bus(5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_lines(), b->num_lines());
  for (size_t k = 0; k < a->num_branches(); ++k) {
    EXPECT_DOUBLE_EQ(a->branches()[k].x, b->branches()[k].x);
    EXPECT_DOUBLE_EQ(a->branches()[k].r, b->branches()[k].r);
  }
  for (size_t i = 0; i < a->num_buses(); ++i) {
    EXPECT_DOUBLE_EQ(a->bus(i).pd_mw, b->bus(i).pd_mw);
  }
  auto c = Synthetic300Bus(6);
  ASSERT_TRUE(c.ok());
  bool any_differs = false;
  for (size_t i = 0; i < a->num_buses() && !any_differs; ++i) {
    any_differs = a->bus(i).pd_mw != c->bus(i).pd_mw;
  }
  EXPECT_TRUE(any_differs);
}

TEST(RingOfMeshesTest, RejectsDegenerateShapes) {
  RingOfMeshesOptions opts;
  opts.num_regions = 2;
  EXPECT_FALSE(BuildRingOfMeshesGrid(opts).ok());
  opts.num_regions = 4;
  opts.buses_per_region = 3;
  EXPECT_FALSE(BuildRingOfMeshesGrid(opts).ok());
}

}  // namespace
}  // namespace phasorwatch::grid
