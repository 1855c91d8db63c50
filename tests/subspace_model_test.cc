#include "detect/subspace_model.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/svd.h"

namespace phasorwatch::detect {
namespace {

using linalg::Matrix;
using linalg::Vector;

// Builds a data set whose angle channel varies only inside the span of
// `directions` around `mean` (plus tiny noise).
sim::PhasorDataSet StructuredData(const Vector& mean,
                                  const std::vector<Vector>& directions,
                                  size_t samples, double noise, Rng& rng) {
  const size_t n = mean.size();
  sim::PhasorDataSet data;
  data.vm = Matrix(n, samples, 1.0);
  data.va = Matrix(n, samples);
  for (size_t t = 0; t < samples; ++t) {
    Vector x = mean;
    for (const Vector& d : directions) {
      double coeff = rng.Normal(0.0, 1.0);
      for (size_t i = 0; i < n; ++i) x[i] += coeff * d[i];
    }
    for (size_t i = 0; i < n; ++i) {
      data.va(i, t) = x[i] + rng.Normal(0.0, noise);
    }
  }
  return data;
}


Vector Axis(size_t n, size_t i) {
  Vector v(n);
  v[i] = 1.0;
  return v;
}

TEST(SubspaceModelTest, LearnsMeanOfTrainingData) {
  Rng rng(1);
  Vector mean = {0.1, -0.2, 0.3, 0.0, 0.5};
  auto data = StructuredData(mean, {Axis(5, 0)}, 300, 1e-4, rng);
  auto model = LearnSubspaceModel(data.va, {});
  ASSERT_TRUE(model.ok());
  // Node 0 carries the unit-variance variation direction, so its
  // sample mean wanders by ~1/sqrt(300); other nodes only see noise.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(model->mean[i], mean[i], i == 0 ? 0.2 : 0.02);
  }
}

TEST(SubspaceModelTest, ConstraintsAnnihilateTrainingVariation) {
  Rng rng(2);
  Vector mean(6);
  std::vector<Vector> dirs = {Axis(6, 0), Axis(6, 1)};
  auto data = StructuredData(mean, dirs, 400, 1e-5, rng);
  auto model = LearnSubspaceModel(data.va, {});
  ASSERT_TRUE(model.ok());
  // Constraint directions must be orthogonal to the variation axes:
  // proximity of a sample from the model distribution is tiny.
  Vector sample = mean;
  sample[0] += 2.0;  // variation inside span(dirs)
  sample[1] -= 1.0;
  EXPECT_LT(model->Proximity(sample), 1e-6);
  // A violation in a constrained direction scores large.
  Vector bad = mean;
  bad[4] += 1.0;
  EXPECT_GT(model->Proximity(bad), 0.1);
}

TEST(SubspaceModelTest, ProximityZeroAtMean) {
  Rng rng(3);
  auto data = StructuredData(Vector(4), {Axis(4, 2)}, 100, 1e-4, rng);
  auto model = LearnSubspaceModel(data.va, {});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->Proximity(Vector(4)), 0.0, 1e-6);
}

// Both channels feed the features: magnitudes in rows [0, N), angles
// in rows [N, 2N).
TEST(SubspaceModelTest, ChannelSelection) {
  sim::PhasorDataSet data;
  data.vm = Matrix(3, 5, 2.0);
  data.va = Matrix(3, 5, -1.0);
  data.va(1, 4) = 7.0;
  const Matrix x = FeatureMatrix(data);
  ASSERT_EQ(x.rows(), 6u);
  ASSERT_EQ(x.cols(), 5u);
  EXPECT_DOUBLE_EQ(x(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(x(2, 3), 2.0);
  EXPECT_DOUBLE_EQ(x(3, 0), -1.0);
  EXPECT_DOUBLE_EQ(x(4, 4), 7.0);
  Vector vm = {1.0, 2.0};
  Vector va = {5.0, 6.0};
  const Vector f = FeatureVector(vm, va);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 2.0);
  EXPECT_DOUBLE_EQ(f[2], 5.0);
  EXPECT_DOUBLE_EQ(f[3], 6.0);
}

TEST(SubspaceModelTest, ConstraintCountRespectsBounds) {
  Rng rng(4);
  auto data = StructuredData(Vector(8), {Axis(8, 0)}, 200, 1e-4, rng);
  SubspaceModelOptions opts;
  opts.min_constraints = 2;
  opts.max_constraints = 4;
  auto model = LearnSubspaceModel(data.va, opts);
  ASSERT_TRUE(model.ok());
  EXPECT_GE(model->constraints.dim(), 2u);
  EXPECT_LE(model->constraints.dim(), 4u);
}

TEST(SubspaceModelTest, RejectsTooFewSamples) {
  sim::PhasorDataSet data;
  data.vm = Matrix(3, 1);
  data.va = Matrix(3, 1);
  EXPECT_FALSE(LearnSubspaceModel(data.va, {}).ok());
}

TEST(SubspaceModelTest, SingularValuesSorted) {
  Rng rng(5);
  auto data = StructuredData(Vector(5), {Axis(5, 0), Axis(5, 3)}, 150,
                             1e-3, rng);
  auto model = LearnSubspaceModel(data.va, {});
  ASSERT_TRUE(model.ok());
  for (size_t i = 0; i + 1 < model->singular_values.size(); ++i) {
    EXPECT_GE(model->singular_values[i], model->singular_values[i + 1]);
  }
}

TEST(SubspaceModelTest, RepeatedNodeSeriesTrains) {
  // Two nodes reporting the same series (a duplicated PMU channel) make
  // the scatter matrix of wide data rank-deficient with a repeated row.
  // The model must still train, and the duplicate's difference is a
  // constraint: a sample where the two disagree violates it.
  Rng rng(9);
  auto data = StructuredData(Vector(6), {Axis(6, 0), Axis(6, 1)}, 100,
                             1e-3, rng);
  for (size_t t = 0; t < data.va.cols(); ++t) data.va(4, t) = data.va(1, t);
  auto model = LearnSubspaceModel(data.va, {});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_LT(model->constraints.OrthonormalityError(), 1e-9);
  Vector split(6);
  split[1] = 1.0;
  split[4] = -1.0;
  EXPECT_GT(model->Proximity(split), 1.0);
}

TEST(NodeSubspacesTest, SingleModelPassesThrough) {
  Rng rng(6);
  auto data = StructuredData(Vector(5), {Axis(5, 1)}, 120, 1e-4, rng);
  auto model = LearnSubspaceModel(data.va, {});
  ASSERT_TRUE(model.ok());
  auto node = BuildNodeSubspaces({&*model});
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node->union_model.constraints.dim(), model->constraints.dim());
  EXPECT_EQ(node->intersection_model.constraints.dim(),
            model->constraints.dim());
}

TEST(NodeSubspacesTest, UnionModelKeepsSharedConstraints) {
  // Two models in R^4: model A varies along e0, model B along e1. Both
  // constrain e2 and e3. The union (solution-set sense) must keep the
  // shared constraints e2/e3 so that a sample moving along e0 OR e1
  // stays close, while e2/e3 violations still score.
  Rng rng(7);
  auto data_a = StructuredData(Vector(4), {Axis(4, 0)}, 300, 1e-5, rng);
  auto data_b = StructuredData(Vector(4), {Axis(4, 1)}, 300, 1e-5, rng);
  SubspaceModelOptions opts;
  opts.min_constraints = 2;
  opts.max_constraints = 3;
  auto model_a = LearnSubspaceModel(data_a.va, opts);
  auto model_b = LearnSubspaceModel(data_b.va, opts);
  ASSERT_TRUE(model_a.ok());
  ASSERT_TRUE(model_b.ok());
  auto node = BuildNodeSubspaces({&*model_a, &*model_b}, 0.8);
  ASSERT_TRUE(node.ok());

  Vector along_e0 = {1.0, 0.0, 0.0, 0.0};
  Vector along_e1 = {0.0, 1.0, 0.0, 0.0};
  Vector along_e3 = {0.0, 0.0, 0.0, 1.0};
  EXPECT_LT(node->union_model.Proximity(along_e0), 0.01);
  EXPECT_LT(node->union_model.Proximity(along_e1), 0.01);
  EXPECT_GT(node->union_model.Proximity(along_e3), 0.1);
}

TEST(NodeSubspacesTest, IntersectionModelAccumulatesAllConstraints) {
  Rng rng(8);
  auto data_a = StructuredData(Vector(4), {Axis(4, 0)}, 300, 1e-5, rng);
  auto data_b = StructuredData(Vector(4), {Axis(4, 1)}, 300, 1e-5, rng);
  SubspaceModelOptions opts;
  opts.min_constraints = 2;
  opts.max_constraints = 3;
  auto model_a = LearnSubspaceModel(data_a.va, opts);
  auto model_b = LearnSubspaceModel(data_b.va, opts);
  ASSERT_TRUE(model_a.ok());
  ASSERT_TRUE(model_b.ok());
  auto node = BuildNodeSubspaces({&*model_a, &*model_b}, 0.8);
  ASSERT_TRUE(node.ok());
  // The intersection model (solution sets) carries both models'
  // constraints: moving along e0 violates model B's constraint on e0.
  Vector along_e0 = {1.0, 0.0, 0.0, 0.0};
  EXPECT_GT(node->intersection_model.Proximity(along_e0),
            node->union_model.Proximity(along_e0));
  EXPECT_GE(node->intersection_model.constraints.dim(),
            node->union_model.constraints.dim());
}

// A member model whose constraint basis spans the rotated axes
// `quiet` (columns of `rotation`), perturbed by `jitter` the way a
// data-learned basis is.
SubspaceModel MemberModel(const Matrix& rotation,
                          const std::vector<size_t>& quiet, double jitter,
                          Rng& rng) {
  const size_t n = rotation.rows();
  std::vector<Vector> columns;
  for (size_t axis : quiet) {
    Vector v = rotation.Col(axis);
    for (size_t i = 0; i < n; ++i) v[i] += rng.Normal(0.0, jitter);
    columns.push_back(v);
  }
  SubspaceModel model;
  model.mean = Vector(n);
  model.constraints = linalg::Subspace(Matrix::FromColumns(columns));
  return model;
}

// The soft intersection against the explicit (dense) averaged
// projector P = (1/m) sum_k B_k B_k^T, on member sets whose summed rank
// r is below the ambient dimension n (the low-rank side, solved through
// the r x r Gram matrix) and at or above it (the n x n one). The kept basis
// must be orthonormal, every kept direction an eigenvector of P with
// eigenvalue >= tau, and the kept dimension the number of P's
// eigenvalues >= tau (one, the top direction, when there is none).
TEST(NodeSubspacesTest, LowRankCompositionMatchesDense) {
  const double tau = 0.6;
  struct MemberSet {
    size_t n;
    std::vector<std::vector<size_t>> quiet;
  };
  const std::vector<MemberSet> sets = {
      // r = 11 < n = 24: axes 20, 21 shared by all (eigenvalue 1), axis
      // 16 by two of three (2/3), axes 10-12 by one (1/3).
      {24, {{20, 21, 10, 16}, {20, 21, 11, 16}, {20, 21, 12}}},
      // r = 3 < n = 24, nothing shared: the top direction is kept.
      {24, {{3}, {7}, {11}}},
      // r = 15 >= n = 8: axes 4, 5, 7 shared (1), axes 0 and 3 by two
      // of three (2/3), axes 1 and 2 by one (1/3), axis 6 by none.
      {8, {{1, 2, 3, 4, 5, 7}, {0, 3, 4, 5, 7}, {0, 4, 5, 7}}},
      // r = 12 >= n = 6: every axis in two of three members.
      {6, {{0, 1, 2, 3}, {2, 3, 4, 5}, {0, 1, 4, 5}}},
  };
  for (uint64_t seed = 30; seed < 33; ++seed) {
    for (const MemberSet& set : sets) {
      const size_t n = set.n;
      Rng rng(seed);
      Matrix random(n, n);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) random(i, j) = rng.Normal(0.0, 1.0);
      }
      const Matrix rotation = linalg::Subspace(random).basis();
      std::vector<SubspaceModel> models;
      for (const auto& quiet : set.quiet) {
        models.push_back(MemberModel(rotation, quiet, 1e-6, rng));
      }
      std::vector<const SubspaceModel*> members;
      size_t r = 0;
      Matrix p(n, n);
      for (const SubspaceModel& m : models) {
        members.push_back(&m);
        r += m.constraints.dim();
        const Matrix& b = m.constraints.basis();
        p += b * b.Transposed();
      }
      p *= 1.0 / static_cast<double>(models.size());
      auto oracle = linalg::ComputeSvd(p);
      ASSERT_TRUE(oracle.ok());
      size_t expected = 0;
      for (size_t k = 0; k < n; ++k) {
        if (oracle->singular_values[k] >= tau) ++expected;
      }

      auto node = BuildNodeSubspaces(members, tau);
      ASSERT_TRUE(node.ok()) << node.status().ToString();
      const linalg::Subspace& kept = node->union_model.constraints;
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " n " << n << " r " << r);
      EXPECT_LT(kept.OrthonormalityError(), 1e-9);
      EXPECT_EQ(kept.dim(), std::max<size_t>(expected, 1));
      for (size_t k = 0; k < kept.dim(); ++k) {
        const Vector u = kept.basis().Col(k);
        const Vector pu = p * u;
        const double lambda = u.Dot(pu);
        EXPECT_LE((pu - lambda * u).Norm(), 1e-9);
        if (expected > 0) {
          EXPECT_GE(lambda, tau);
        } else {
          EXPECT_NEAR(lambda, oracle->singular_values[0], 1e-9);
        }
      }
    }
  }
}

// A solver failure must surface, not train a trivial union model: a NaN
// in a member basis keeps every Jacobi sweep rotating. Both Gram sides
// are covered (r = 2 < n = 4, and r = 2 >= n = 2).
TEST(NodeSubspacesTest, SolverFailurePropagates) {
  for (size_t n : {4u, 2u}) {
    SubspaceModel a;
    a.mean = Vector(n);
    a.constraints = linalg::Subspace::FromOrthonormal(
        Matrix::FromColumns({Axis(n, 0)}));
    SubspaceModel b = a;
    Matrix poisoned(n, 1);
    poisoned(0, 0) = std::nan("");
    poisoned(1, 0) = 1.0;
    b.constraints = linalg::Subspace::FromOrthonormal(poisoned);
    auto node = BuildNodeSubspaces({&a, &b});
    ASSERT_FALSE(node.ok()) << "n " << n;
    EXPECT_EQ(node.status().code(), StatusCode::kNotConverged) << "n " << n;
  }
}

}  // namespace
}  // namespace phasorwatch::detect
