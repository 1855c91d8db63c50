#include "detect/groups.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grid/ieee_cases.h"

namespace phasorwatch::detect {
namespace {

using linalg::Matrix;

// Capability table fixture: endpoints of each line detect perfectly,
// plus a configurable set of "remote experts".
class GroupsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto grid = grid::IeeeCase14();
    ASSERT_TRUE(grid.ok());
    grid_ = std::make_unique<grid::Grid>(std::move(grid).value());
    auto net = sim::PmuNetwork::Build(*grid_, 3);
    ASSERT_TRUE(net.ok());
    network_ = std::make_unique<sim::PmuNetwork>(std::move(net).value());
  }

  // Builds a capability table via the public Build() on synthetic data
  // where nodes in `experts` always detect everything.
  CapabilityTable MakeTable(const std::vector<size_t>& experts) {
    const size_t n = grid_->num_buses();
    Rng rng(1);
    sim::PhasorDataSet normal;
    normal.vm = Matrix(n, 60);
    normal.va = Matrix(n, 60);
    for (size_t i = 0; i < n; ++i) {
      for (size_t t = 0; t < 60; ++t) {
        normal.vm(i, t) = 1.0 + rng.Normal(0.0, 0.001);
        normal.va(i, t) = rng.Normal(0.0, 0.001);
      }
    }
    std::vector<EllipseModel> ellipses;
    for (size_t i = 0; i < n; ++i) {
      std::vector<PhasorPoint> pts;
      for (size_t t = 0; t < 60; ++t) {
        pts.push_back({normal.vm(i, t), normal.va(i, t)});
      }
      ellipses.push_back(*EllipseModel::Fit(pts));
    }

    lines_.clear();
    outage_storage_.clear();
    for (const grid::LineId& line : grid_->lines()) {
      lines_.push_back(line);
      sim::PhasorDataSet d;
      d.vm = Matrix(n, 60);
      d.va = Matrix(n, 60);
      for (size_t i = 0; i < n; ++i) {
        bool detects =
            i == line.i || i == line.j ||
            std::find(experts.begin(), experts.end(), i) != experts.end();
        double shift = detects ? 0.05 : 0.0;
        for (size_t t = 0; t < 60; ++t) {
          d.vm(i, t) = 1.0 + shift + rng.Normal(0.0, 0.001);
          d.va(i, t) = shift + rng.Normal(0.0, 0.001);
        }
      }
      outage_storage_.push_back(std::move(d));
    }
    std::vector<const sim::PhasorDataSet*> blocks;
    for (const auto& d : outage_storage_) blocks.push_back(&d);
    auto table =
        CapabilityTable::Build(*grid_, ellipses, normal, lines_, blocks);
    PW_CHECK(table.ok());
    return std::move(table).value();
  }

  Matrix RandomLoadings(size_t cols, uint64_t seed) {
    Rng rng(seed);
    Matrix m(grid_->num_buses(), cols);
    for (size_t i = 0; i < m.rows(); ++i) {
      for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-1.0, 1.0);
    }
    return m;
  }

  std::unique_ptr<grid::Grid> grid_;
  std::unique_ptr<sim::PmuNetwork> network_;
  std::vector<grid::LineId> lines_;
  std::vector<sim::PhasorDataSet> outage_storage_;
};

TEST_F(GroupsTest, GroupsAreSplitByClusterMembership) {
  CapabilityTable table = MakeTable({});
  DetectionGroupOptions opts;
  DetectionGroupBuilder builder(*network_, table, opts);
  for (size_t c = 0; c < network_->num_clusters(); ++c) {
    ClusterDetectionGroup g = builder.Build(c, RandomLoadings(4, c + 1));
    for (size_t node : g.in_cluster) {
      EXPECT_EQ(network_->ClusterOf(node), c);
    }
    for (size_t node : g.out_of_cluster) {
      EXPECT_NE(network_->ClusterOf(node), c);
    }
  }
}

TEST_F(GroupsTest, GroupsAreNonEmptyAndBounded) {
  CapabilityTable table = MakeTable({});
  DetectionGroupBuilder builder(*network_, table, {});
  for (size_t c = 0; c < network_->num_clusters(); ++c) {
    ClusterDetectionGroup g = builder.Build(c, RandomLoadings(4, c + 10));
    EXPECT_FALSE(g.in_cluster.empty());
    EXPECT_FALSE(g.out_of_cluster.empty());
    EXPECT_LE(g.in_cluster.size(), kMaxGroupSize);
    EXPECT_LE(g.out_of_cluster.size(), kMaxGroupSize);
  }
}

TEST_F(GroupsTest, RemoteExpertsJoinOutOfClusterGroup) {
  // Node 13 (bus 14) detects every outage; it must appear in the
  // out-of-cluster group of clusters it does not belong to.
  CapabilityTable table = MakeTable({13});
  DetectionGroupOptions opts;
  opts.learned_fraction = 1.0;
  DetectionGroupBuilder builder(*network_, table, opts);
  size_t home = network_->ClusterOf(13);
  bool found = false;
  for (size_t c = 0; c < network_->num_clusters(); ++c) {
    if (c == home) continue;
    ClusterDetectionGroup g = builder.Build(c, RandomLoadings(4, c + 20));
    if (std::find(g.out_of_cluster.begin(), g.out_of_cluster.end(),
                  size_t{13}) != g.out_of_cluster.end()) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(GroupsTest, ZeroFractionUsesOnlyNaiveAndMinimumFill) {
  CapabilityTable table = MakeTable({});
  DetectionGroupOptions naive_opts;
  naive_opts.learned_fraction = 0.0;
  DetectionGroupOptions full_opts;
  full_opts.learned_fraction = 1.0;
  DetectionGroupBuilder naive_builder(*network_, table, naive_opts);
  DetectionGroupBuilder full_builder(*network_, table, full_opts);
  // With the learned members included the group can only grow.
  for (size_t c = 0; c < network_->num_clusters(); ++c) {
    Matrix loadings = RandomLoadings(4, c + 30);
    ClusterDetectionGroup g0 = naive_builder.Build(c, loadings);
    ClusterDetectionGroup g1 = full_builder.Build(c, loadings);
    EXPECT_GE(g1.in_cluster.size() + g1.out_of_cluster.size(),
              g0.in_cluster.size() + g0.out_of_cluster.size());
  }
}

TEST_F(GroupsTest, OrthogonalMembersAreOrthogonalish) {
  CapabilityTable table = MakeTable({});
  DetectionGroupOptions opts;
  DetectionGroupBuilder builder(*network_, table, opts);
  // Loading matrix with two exactly orthogonal rows and many copies.
  Matrix loadings(grid_->num_buses(), 2);
  for (size_t i = 0; i < loadings.rows(); ++i) {
    if (i == 3) {
      loadings(i, 0) = 1.0;
    } else if (i == 7) {
      loadings(i, 1) = 1.0;
    } else {
      loadings(i, 0) = 0.9;
      loadings(i, 1) = 0.1;
    }
  }
  std::vector<size_t> candidates(grid_->num_buses());
  for (size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
  std::vector<size_t> picked =
      builder.OrthogonalMembers(loadings, candidates, 4);
  // Both pure-axis nodes must be selected.
  EXPECT_NE(std::find(picked.begin(), picked.end(), size_t{3}), picked.end());
  EXPECT_NE(std::find(picked.begin(), picked.end(), size_t{7}), picked.end());
}

TEST_F(GroupsTest, EmptyCandidatesGiveEmptyPick) {
  CapabilityTable table = MakeTable({});
  DetectionGroupBuilder builder(*network_, table, {});
  EXPECT_TRUE(builder.OrthogonalMembers(RandomLoadings(3, 40), {}, 4).empty());
}

}  // namespace
}  // namespace phasorwatch::detect
