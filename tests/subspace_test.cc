#include "linalg/subspace.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace phasorwatch::linalg {
namespace {

Vector Axis(size_t n, size_t i) {
  Vector v(n);
  v[i] = 1.0;
  return v;
}

Subspace SpanOf(const std::vector<Vector>& columns) {
  return Subspace(Matrix::FromColumns(columns));
}

TEST(SubspaceTest, TrivialSubspace) {
  Subspace s;
  EXPECT_TRUE(s.trivial());
  EXPECT_EQ(s.dim(), 0u);
}

TEST(SubspaceTest, OrthonormalizesSpanningColumns) {
  // Two parallel columns collapse to one basis vector.
  Matrix m(3, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  Subspace s(m);
  EXPECT_EQ(s.dim(), 1u);
  EXPECT_LT(s.OrthonormalityError(), 1e-12);
}

TEST(SubspaceTest, ProjectionOntoAxisPlane) {
  Subspace xy = SpanOf({Axis(3, 0), Axis(3, 1)});
  Vector p = xy.Project(Vector{1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 2.0, 1e-12);
  EXPECT_NEAR(p[2], 0.0, 1e-12);
}

TEST(SubspaceTest, DistanceToAxisPlane) {
  Subspace xy = SpanOf({Axis(3, 0), Axis(3, 1)});
  EXPECT_NEAR(xy.Distance(Vector{1.0, 2.0, 3.0}), 3.0, 1e-12);
  EXPECT_NEAR(xy.Distance(Vector{5.0, -4.0, 0.0}), 0.0, 1e-12);
}

TEST(SubspaceTest, ProjectionIsIdempotent) {
  Rng rng(5);
  Matrix m(6, 3);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 3; ++j) m(i, j) = rng.Uniform(-1.0, 1.0);
  }
  Subspace s(m);
  Vector x(6);
  for (size_t i = 0; i < 6; ++i) x[i] = rng.Uniform(-2.0, 2.0);
  Vector p1 = s.Project(x);
  Vector p2 = s.Project(p1);
  EXPECT_LT((p1 - p2).InfNorm(), 1e-10);
}

TEST(SubspaceUnionTest, UnionOfAxes) {
  Subspace x = SpanOf({Axis(3, 0)});
  Subspace y = SpanOf({Axis(3, 1)});
  Subspace u = Subspace::UnionAll({&x, &y});
  EXPECT_EQ(u.dim(), 2u);
  EXPECT_NEAR(u.Distance(Vector{1.0, 1.0, 0.0}), 0.0, 1e-10);
}

TEST(SubspaceUnionTest, UnionWithTrivial) {
  Subspace x = SpanOf({Axis(3, 0)});
  Subspace trivial;
  Subspace u = Subspace::UnionAll({&x, &trivial});
  EXPECT_EQ(u.dim(), 1u);
  EXPECT_TRUE(Subspace::UnionAll({&trivial}).trivial());
}

TEST(SubspaceUnionTest, OverlappingUnionsDoNotDoubleCount) {
  Subspace a = SpanOf({Axis(4, 0), Axis(4, 1)});
  Subspace b = SpanOf({Axis(4, 1), Axis(4, 2)});
  Subspace u = Subspace::UnionAll({&a, &b});
  EXPECT_EQ(u.dim(), 3u);
}

TEST(SubspaceUnionTest, UnionAllOverCollection) {
  Subspace a = SpanOf({Axis(5, 0)});
  Subspace b = SpanOf({Axis(5, 2)});
  Subspace c = SpanOf({Axis(5, 4)});
  Subspace u = Subspace::UnionAll({&a, &b, &c});
  EXPECT_EQ(u.dim(), 3u);
}

TEST(SubspaceUnionTest, StackBasesKeepsOrderAndSkipsTrivial) {
  Subspace a = SpanOf({Axis(3, 2)});
  Subspace trivial;
  Subspace b = SpanOf({Axis(3, 0), Axis(3, 1)});
  Matrix stacked = Subspace::StackBases({&a, &trivial, &b});
  ASSERT_EQ(stacked.rows(), 3u);
  ASSERT_EQ(stacked.cols(), 3u);
  EXPECT_TRUE(stacked.AlmostEquals(a.basis().ConcatCols(b.basis()), 0.0));
  EXPECT_TRUE(Subspace::StackBases({&trivial}).empty());
}

TEST(PrincipalAnglesTest, IdenticalSubspacesHaveCosineOne) {
  Subspace a = SpanOf({Axis(3, 0), Axis(3, 1)});
  auto cos = Subspace::PrincipalAngleCosines(a, a);
  ASSERT_TRUE(cos.ok());
  EXPECT_NEAR((*cos)[0], 1.0, 1e-10);
  EXPECT_NEAR((*cos)[1], 1.0, 1e-10);
}

TEST(PrincipalAnglesTest, OrthogonalSubspacesHaveCosineZero) {
  Subspace a = SpanOf({Axis(4, 0)});
  Subspace b = SpanOf({Axis(4, 2)});
  auto cos = Subspace::PrincipalAngleCosines(a, b);
  ASSERT_TRUE(cos.ok());
  EXPECT_NEAR((*cos)[0], 0.0, 1e-10);
}

TEST(PrincipalAnglesTest, FortyFiveDegrees) {
  Subspace a = SpanOf({Axis(2, 0)});
  Subspace b = SpanOf({Vector{1.0, 1.0}});
  auto cos = Subspace::PrincipalAngleCosines(a, b);
  ASSERT_TRUE(cos.ok());
  EXPECT_NEAR((*cos)[0], std::sqrt(0.5), 1e-10);
}

TEST(PrincipalAnglesTest, TrivialRejected) {
  Subspace a = SpanOf({Axis(2, 0)});
  EXPECT_FALSE(Subspace::PrincipalAngleCosines(a, Subspace()).ok());
}

}  // namespace
}  // namespace phasorwatch::linalg
