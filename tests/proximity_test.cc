#include "detect/proximity.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "linalg/svd.h"
#include "obs/metrics.h"
#include "proximity_oracle.h"

namespace phasorwatch::detect {
namespace {

using linalg::Matrix;
using linalg::Subspace;
using linalg::Vector;

// Model in R^4 constraining e2 and e3 (variation allowed in e0, e1).
SubspaceModel MakeModel() {
  SubspaceModel model;
  model.mean = Vector(4);
  Matrix basis(4, 2);
  basis(2, 0) = 1.0;
  basis(3, 1) = 1.0;
  model.constraints = Subspace::FromOrthonormal(basis);
  model.singular_values = Vector{1.0, 1.0, 0.0, 0.0};
  return model;
}

TEST(ProximityEngineTest, CompleteSampleMatchesModelProximity) {
  SubspaceModel model = MakeModel();
  Vector x = {0.5, -0.3, 0.2, -0.1};
  EXPECT_NEAR(model.Proximity(x), 0.2 * 0.2 + 0.1 * 0.1, 1e-12);
}

TEST(ProximityEngineTest, FullGroupEqualsComplete) {
  SubspaceModel model = MakeModel();
  ProximityEngine engine;
  Vector x = {1.0, 2.0, 0.3, 0.4};
  auto prox = engine.Evaluate(model, 1, x, {0, 1, 2, 3});
  ASSERT_TRUE(prox.ok());
  EXPECT_NEAR(*prox, model.Proximity(x), 1e-12);
}

TEST(ProximityEngineTest, EmptyGroupRejected) {
  SubspaceModel model = MakeModel();
  ProximityEngine engine;
  auto prox = engine.Evaluate(model, 1, Vector(4), {});
  EXPECT_FALSE(prox.ok());
  EXPECT_EQ(prox.status().code(), StatusCode::kDataMissing);
}

TEST(ProximityEngineTest, SizeMismatchRejected) {
  SubspaceModel model = MakeModel();
  ProximityEngine engine;
  EXPECT_FALSE(engine.Evaluate(model, 1, Vector(3), {0, 1}).ok());
}

TEST(ProximityEngineTest, RestrictedGroupSeesOnlyItsConstraints) {
  SubspaceModel model = MakeModel();
  ProximityEngine engine;
  // Group {0, 1, 2}: the hidden coordinate is 3, whose constraint can
  // always be satisfied by completion, so only the e2 violation remains.
  Vector x = {0.0, 0.0, 0.7, 100.0};  // hidden value is ignored
  auto prox = engine.Evaluate(model, 2, x, {0, 1, 2});
  ASSERT_TRUE(prox.ok());
  EXPECT_NEAR(*prox, 0.49, 1e-10);
}

TEST(ProximityEngineTest, HiddenViolationInvisible) {
  SubspaceModel model = MakeModel();
  ProximityEngine engine;
  // Only e3 violated, but node 3 is hidden: the completion can explain
  // it, so proximity is ~0.
  Vector x = {0.2, -0.1, 0.0, 5.0};
  auto prox = engine.Evaluate(model, 3, x, {0, 1, 2});
  ASSERT_TRUE(prox.ok());
  EXPECT_NEAR(*prox, 0.0, 1e-10);
}

TEST(ProximityEngineTest, ProximityNeverNegative) {
  Rng rng(1);
  SubspaceModel model = MakeModel();
  ProximityEngine engine;
  for (int trial = 0; trial < 30; ++trial) {
    Vector x(4);
    for (size_t i = 0; i < 4; ++i) x[i] = rng.Uniform(-2.0, 2.0);
    auto prox = engine.Evaluate(model, 4, x, {0, 2, 3});
    ASSERT_TRUE(prox.ok());
    EXPECT_GE(*prox, 0.0);
  }
}

TEST(ProximityEngineTest, CompletionResidualIsLowerBoundedByComplete) {
  // The restricted residual minimizes over hidden coordinates, so it can
  // never exceed the complete-sample violation.
  Rng rng(2);
  SubspaceModel model = MakeModel();
  ProximityEngine engine;
  for (int trial = 0; trial < 30; ++trial) {
    Vector x(4);
    for (size_t i = 0; i < 4; ++i) x[i] = rng.Uniform(-2.0, 2.0);
    auto restricted = engine.Evaluate(model, 5, x, {0, 1, 2});
    ASSERT_TRUE(restricted.ok());
    EXPECT_LE(*restricted, model.Proximity(x) + 1e-10);
  }
}

TEST(ProximityEngineTest, CacheReusedForSameGroup) {
  SubspaceModel model = MakeModel();
  ProximityEngine engine;
  EXPECT_EQ(engine.cache_size(), 0u);
  ASSERT_TRUE(engine.Evaluate(model, 6, Vector(4), {0, 1}).ok());
  EXPECT_EQ(engine.cache_size(), 1u);
  ASSERT_TRUE(engine.Evaluate(model, 6, Vector(4), {0, 1}).ok());
  EXPECT_EQ(engine.cache_size(), 1u);
  ASSERT_TRUE(engine.Evaluate(model, 6, Vector(4), {0, 2}).ok());
  EXPECT_EQ(engine.cache_size(), 2u);
  engine.ClearCache();
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST(ProximityEngineTest, DistinctModelsDoNotCollide) {
  SubspaceModel a = MakeModel();
  SubspaceModel b = MakeModel();
  // Model b constrains e0 instead of e2/e3.
  Matrix basis(4, 1);
  basis(0, 0) = 1.0;
  b.constraints = Subspace::FromOrthonormal(basis);
  ProximityEngine engine;
  Vector x = {1.0, 0.0, 0.0, 0.0};
  auto pa = engine.Evaluate(a, 100, x, {0, 1, 2});
  auto pb = engine.Evaluate(b, 200, x, {0, 1, 2});
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_NEAR(*pa, 0.0, 1e-10);
  EXPECT_NEAR(*pb, 1.0, 1e-10);
}

// A random n x k coefficient matrix: general entries, or orthonormal
// columns (the left singular vectors of a general one, k <= n).
Matrix RandomBasis(size_t n, size_t k, bool orthonormal, Rng& rng) {
  Matrix basis(n, k);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) basis(i, j) = rng.Uniform(-1.0, 1.0);
  }
  if (!orthonormal) return basis;
  auto svd = linalg::ComputeSvd(basis);
  PW_CHECK(svd.ok());
  return svd->u;
}

// A class family over `basis` with a random base mean and `cases` random
// case means.
ClassFamily RandomFamily(Matrix basis, size_t cases, Rng& rng) {
  const size_t n = basis.rows();
  SubspaceModel base;
  base.mean = Vector(n);
  for (size_t i = 0; i < n; ++i) base.mean[i] = rng.Uniform(-1.0, 1.0);
  base.constraints = Subspace::FromOrthonormal(std::move(basis));
  std::vector<Vector> case_means;
  for (size_t c = 0; c < cases; ++c) {
    Vector mean(n);
    for (size_t i = 0; i < n; ++i) mean[i] = rng.Uniform(-1.0, 1.0);
    case_means.push_back(mean);
  }
  return ClassFamily(std::move(base), std::move(case_means));
}

// ||C_D z_D||^2 with z = x - mean: the size of the walk before the
// projection. The oracle comparisons below floor their relative bound
// at 1e-8 of it, where R is too close to zero for a relative error of
// the residual itself to mean anything.
double GroupWalkSq(const SubspaceModel& model, const Vector& x,
                   const Vector& mean, const std::vector<size_t>& group) {
  const Matrix& b = model.constraints.basis();
  double sum = 0.0;
  for (size_t j = 0; j < b.cols(); ++j) {
    double dot = 0.0;
    for (size_t idx : group) dot += b(idx, j) * (x[idx] - mean[idx]);
    sum += dot * dot;
  }
  return sum;
}

// |got - want| within oracle::kRelTol of max(|want|, floor).
void ExpectNearOracle(double got, double want, double floor,
                      const std::string& what) {
  const double scale = std::max(std::abs(want), floor);
  EXPECT_LE(std::abs(got - want), oracle::kRelTol * scale)
      << what << ": got " << got << " want " << want;
}

// Evaluate and EvaluateFamily over `group` against the pseudo-inverse
// oracle: the base residual, every case residual (as a model of its
// own and from the family), every shift energy and every drop.
void ExpectMatchesOracle(ProximityEngine& engine, const ClassFamily& family,
                         const Vector& x, const std::vector<size_t>& group) {
  const SubspaceModel& base = family.base();
  const oracle::FamilyResult want = oracle::Family(family, x, group);
  const std::string tag = "|D|=" + std::to_string(group.size()) +
                          " k=" + std::to_string(base.constraints.dim());
  const double walk = 1e-8 * GroupWalkSq(base, x, base.mean, group);
  auto r0 = engine.Evaluate(base, 1, x, group);
  ASSERT_TRUE(r0.ok());
  ExpectNearOracle(*r0, want.normal, walk, tag + " normal");
  FamilyResiduals got;
  ASSERT_TRUE(engine.EvaluateFamily(family, 2, x, group, &got).ok());
  EXPECT_EQ(got.normal, *r0) << tag;  // one entry kind, one walk
  for (size_t c = 0; c < family.num_cases(); ++c) {
    const std::string what = tag + " case " + std::to_string(c);
    const Vector& mu_c = family.case_mean(c);
    SubspaceModel model = base;
    model.mean = mu_c;
    auto r = engine.Evaluate(model, 1, x, group);
    ASSERT_TRUE(r.ok());
    ExpectNearOracle(*r, want.cases[c],
                     1e-8 * GroupWalkSq(base, x, mu_c, group),
                     what + " residual");
    auto e = engine.Evaluate(base, 1, mu_c, group);
    ASSERT_TRUE(e.ok());
    const double shift_walk = 1e-8 * GroupWalkSq(base, mu_c, base.mean, group);
    ExpectNearOracle(*e, want.energies[c], shift_walk, what + " energy");
    // The family form r_0 - 2 g_c + e_c cancels against r_0 + e_c, so
    // its residual and drop are bounded relative to that sum.
    const double cancel =
        std::max(want.normal + want.energies[c], walk + shift_walk);
    ExpectNearOracle(got.cases[c], want.cases[c], cancel,
                     what + " family residual");
    EXPECT_LE(std::abs(got.drops[c] - want.drops[c]),
              oracle::kRelTol * cancel / std::max(want.energies[c], 1e-15))
        << what << " drop";
  }
}

TEST(ProximityEngineTest, MatchesPseudoInverseOracle) {
  Rng rng(3);
  for (bool orthonormal : {false, true}) {
    // Orthonormal columns need k <= n.
    const size_t n = orthonormal ? 64 : 60;
    for (size_t k : {1u, 3u, 28u, 60u, 61u}) {
      const ClassFamily family =
          RandomFamily(RandomBasis(n, k, orthonormal, rng), 3, rng);
      ProximityEngine engine;
      // Hidden sets of 1 to n - 1 coordinates: both entry kinds, and
      // |D| < |M| on both kinds of basis.
      for (size_t num_hidden :
           {size_t{1}, size_t{2}, n / 4, n / 2 - 1, n / 2, n / 2 + 1,
            3 * n / 4, n - 2, n - 1}) {
        std::vector<size_t> order(n);
        for (size_t i = 0; i < n; ++i) order[i] = i;
        rng.Shuffle(order);
        std::vector<size_t> group(order.begin() + num_hidden, order.end());
        std::sort(group.begin(), group.end());
        Vector x(n);
        for (size_t i = 0; i < n; ++i) x[i] = rng.Uniform(-2.0, 2.0);
        SCOPED_TRACE(testing::Message()
                     << (orthonormal ? "orthonormal" : "general") << " k=" << k
                     << " hidden=" << num_hidden);
        ExpectMatchesOracle(engine, family, x, group);
      }
    }
  }
}

TEST(ProximityEngineTest, CacheBytesSumEntryStorage) {
  SubspaceModel model = MakeModel();  // R^4, k = 2, B = [e2 e3]
  ProximityEngine engine;
  EXPECT_EQ(engine.cache_bytes(), 0u);
  const Vector x = {0.1, 0.2, 0.3, 0.4};
  // {0, 1, 2} hides {3}: a projector entry, Q = one row of k, plus
  // three group indices.
  ASSERT_TRUE(engine.Evaluate(model, 1, x, {0, 1, 2}).ok());
  size_t want = 1 * 2 * sizeof(double) + 3 * sizeof(size_t);
  EXPECT_EQ(engine.cache_bytes(), want);
  // {0, 1} hides {2, 3}: a tie, so a regressor entry of two rows.
  ASSERT_TRUE(engine.Evaluate(model, 1, x, {0, 1}).ok());
  want += 2 * 2 * sizeof(double) + 2 * sizeof(size_t);
  EXPECT_EQ(engine.cache_bytes(), want);
  // {2} hides three: a regressor entry, R^T = one row of k.
  ASSERT_TRUE(engine.Evaluate(model, 1, x, {2}).ok());
  want += 1 * 2 * sizeof(double) + 1 * sizeof(size_t);
  EXPECT_EQ(engine.cache_bytes(), want);
  // A hit adds nothing.
  ASSERT_TRUE(engine.Evaluate(model, 1, x, {2}).ok());
  EXPECT_EQ(engine.cache_bytes(), want);
  // A family entry replacing {0, 1}'s adds one energy row of k.
  Rng rng(5);
  ClassFamily family = RandomFamily(model.constraints.basis(), 2, rng);
  FamilyResiduals out;
  ASSERT_TRUE(engine.EvaluateFamily(family, 1, x, {0, 1}, &out).ok());
  want += 1 * 2 * sizeof(double);
  EXPECT_EQ(engine.cache_size(), 3u);
  EXPECT_EQ(engine.cache_bytes(), want);
#ifndef PW_OBS_DISABLED
  const obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("proximity.cache_bytes");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value(), static_cast<double>(want));
#endif
  engine.ClearCache();
  EXPECT_EQ(engine.cache_bytes(), 0u);
}

// Moore-Penrose checks of the oracle's own pseudo-inverse.
Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

TEST(PseudoInverseTest, InverseForSquareNonsingular) {
  Matrix a = {{2.0, 0.0}, {0.0, 4.0}};
  auto pinv = oracle::PseudoInverse(a);
  ASSERT_TRUE(pinv.ok());
  EXPECT_NEAR((*pinv)(0, 0), 0.5, 1e-10);
  EXPECT_NEAR((*pinv)(1, 1), 0.25, 1e-10);
}

class PinvPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(PinvPropertyTest, MoorePenroseConditions) {
  auto [rows, cols] = GetParam();
  Rng rng(rows * 17 + cols);
  Matrix a = RandomMatrix(rows, cols, rng);
  auto pinv_result = oracle::PseudoInverse(a);
  ASSERT_TRUE(pinv_result.ok());
  const Matrix& p = *pinv_result;
  // 1. A P A = A
  EXPECT_TRUE((a * p * a).AlmostEquals(a, 1e-8));
  // 2. P A P = P
  EXPECT_TRUE((p * a * p).AlmostEquals(p, 1e-8));
  // 3. (A P)^T = A P
  Matrix ap = a * p;
  EXPECT_TRUE(ap.Transposed().AlmostEquals(ap, 1e-8));
  // 4. (P A)^T = P A
  Matrix pa = p * a;
  EXPECT_TRUE(pa.Transposed().AlmostEquals(pa, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PinvPropertyTest,
    ::testing::Values(std::make_pair<size_t, size_t>(4, 4),
                      std::make_pair<size_t, size_t>(8, 3),
                      std::make_pair<size_t, size_t>(3, 8),
                      std::make_pair<size_t, size_t>(20, 10)));

TEST(PseudoInverseTest, RankDeficientTreatedStably) {
  // Rank-1 matrix: pinv must not blow up on the zero singular values.
  Matrix a = {{1.0, 2.0}, {2.0, 4.0}};
  auto pinv = oracle::PseudoInverse(a);
  ASSERT_TRUE(pinv.ok());
  Matrix apa = a * *pinv * a;
  EXPECT_TRUE(apa.AlmostEquals(a, 1e-8));
}

// A tiny class family in R^6: a general (non-orthonormal) 6 x 4
// coefficient matrix shared by a base and three cases with random means.
ClassFamily MakeTinyFamily(Rng& rng) {
  const size_t n = 6, k = 4;
  SubspaceModel base;
  base.mean = Vector(n);
  Matrix basis(n, k);
  for (size_t i = 0; i < n; ++i) {
    base.mean[i] = rng.Uniform(-1.0, 1.0);
    for (size_t j = 0; j < k; ++j) basis(i, j) = rng.Uniform(-1.0, 1.0);
  }
  base.constraints = Subspace::FromOrthonormal(basis);
  std::vector<Vector> case_means;
  for (int c = 0; c < 3; ++c) {
    Vector mean(n);
    for (size_t i = 0; i < n; ++i) mean[i] = rng.Uniform(-1.0, 1.0);
    case_means.push_back(mean);
  }
  return ClassFamily(std::move(base), std::move(case_means));
}

// Case c of the family as a model of its own: the base's coefficients
// with the case's mean (the per-model oracle).
SubspaceModel CaseModel(const ClassFamily& family, size_t c) {
  SubspaceModel model = family.base();
  model.mean = family.case_mean(c);
  return model;
}

// Family residuals and drops against per-model Evaluate over `group`,
// on a fresh oracle engine.
void ExpectFamilyMatchesEvaluate(ProximityEngine& engine,
                                 const ClassFamily& family,
                                 const Vector& x,
                                 const std::vector<size_t>& group) {
  ProximityEngine oracle;
  FamilyResiduals out;
  ASSERT_TRUE(engine.EvaluateFamily(family, 9, x, group, &out).ok());
  auto r0 = oracle.Evaluate(family.base(), 1, x, group);
  ASSERT_TRUE(r0.ok());
  // The base residual is the same row walk, summed the same way.
  EXPECT_EQ(out.normal, *r0);
  ASSERT_EQ(out.cases.size(), family.num_cases());
  ASSERT_EQ(out.drops.size(), family.num_cases());
  for (size_t c = 0; c < family.num_cases(); ++c) {
    auto r = oracle.Evaluate(CaseModel(family, c), 1, x, group);
    auto e = oracle.Evaluate(family.base(), 1, family.case_mean(c), group);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(e.ok());
    const double scale = *r0 + *e;
    EXPECT_NEAR(out.cases[c], *r, 1e-12 * scale) << "case " << c;
    EXPECT_NEAR(out.drops[c], (*r0 - *r) / *e, 1e-12 * scale / *e)
        << "case " << c;
  }
}

TEST(ClassFamilyTest, CompleteAndMaskedPathsMatchEvaluate) {
  Rng rng(11);
  const ClassFamily family = MakeTinyFamily(rng);
  ProximityEngine engine;
  const std::vector<size_t> all = {0, 1, 2, 3, 4, 5};
  const std::vector<size_t> masked = {0, 2, 3, 5};
  for (int trial = 0; trial < 8; ++trial) {
    Vector x(6);
    for (size_t i = 0; i < 6; ++i) x[i] = rng.Uniform(-2.0, 2.0);
    ExpectFamilyMatchesEvaluate(engine, family, x, all);
    ExpectFamilyMatchesEvaluate(engine, family, x, masked);
  }
  // Complete data builds no entry; the masked set one, however often
  // it is evaluated.
  EXPECT_EQ(engine.cache_size(), 1u);
  FamilyResiduals out;
  ASSERT_TRUE(engine.EvaluateFamily(family, 9, Vector(6), {1, 2, 4}, &out)
                  .ok());
  EXPECT_EQ(engine.cache_size(), 2u);
  // Another family key is another entry for the same set.
  ASSERT_TRUE(engine.EvaluateFamily(family, 10, Vector(6), masked, &out).ok());
  EXPECT_EQ(engine.cache_size(), 3u);
  EXPECT_FALSE(engine.EvaluateFamily(family, 9, Vector(5), masked, &out).ok());
  EXPECT_FALSE(engine.EvaluateFamily(family, 9, Vector(6), {}, &out).ok());
}

TEST(ClassFamilyTest, EnergiesAreShiftProjectionNorms) {
  Rng rng(12);
  const ClassFamily family = MakeTinyFamily(rng);
  ProximityEngine engine;
  // At the base mean y = 0, so r_c = e_c = ||R d_c||^2 exactly; the
  // reference applies the regressor column by column.
  const Vector& mu = family.base().mean;
  for (const std::vector<size_t>& group :
       {std::vector<size_t>{0, 1, 2, 3, 4, 5}, std::vector<size_t>{1, 3, 4},
        std::vector<size_t>{0, 1, 2, 4, 5}}) {
    FamilyResiduals out;
    ASSERT_TRUE(engine.EvaluateFamily(family, 9, mu, group, &out).ok());
    EXPECT_EQ(out.normal, 0.0);
    for (size_t c = 0; c < family.num_cases(); ++c) {
      const double energy =
          oracle::Proximity(family.base(), family.case_mean(c), group);
      if (group.size() == 6) {
        EXPECT_NEAR(family.complete_energies()[c], energy, 1e-12 * energy);
      }
      EXPECT_NEAR(out.cases[c], energy, 1e-12 * energy) << "case " << c;
      EXPECT_EQ(out.drops[c], -1.0) << "case " << c;
    }
    // On a case's own mean the sample sits on that case: r_c = 0 (the
    // clamp absorbs the cancellation) and its drop is one.
    for (size_t c = 0; c < family.num_cases(); ++c) {
      ASSERT_TRUE(engine.EvaluateFamily(family, 9, family.case_mean(c),
                                        group, &out)
                      .ok());
      EXPECT_GE(out.cases[c], 0.0);
      EXPECT_NEAR(out.cases[c], 0.0, 1e-12 * out.normal);
      EXPECT_NEAR(out.drops[c], 1.0, 1e-12);
    }
  }
}

TEST(ClassFamilyTest, EntryWithoutEnergiesIsRebuiltInPlace) {
  Rng rng(13);
  const ClassFamily family = MakeTinyFamily(rng);
  ProximityEngine engine;
  const std::vector<size_t> group = {0, 1, 3, 4};
  Vector x(6);
  for (size_t i = 0; i < 6; ++i) x[i] = rng.Uniform(-2.0, 2.0);
  // A plain Evaluate under the family key caches the regressor alone.
  auto plain = engine.Evaluate(family.base(), 9, x, group);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(engine.cache_size(), 1u);
  FamilyResiduals out;
  ASSERT_TRUE(engine.EvaluateFamily(family, 9, x, group, &out).ok());
  EXPECT_EQ(engine.cache_size(), 1u);
  EXPECT_EQ(out.normal, *plain);
  ExpectFamilyMatchesEvaluate(engine, family, x, group);
  // And the replaced entry still serves plain evaluations.
  auto again = engine.Evaluate(family.base(), 9, x, group);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *plain);
}

TEST(ClassFamilyTest, RacingThreadsOnAColdKeyAgreeBitExact) {
  Rng rng(14);
  const ClassFamily family = MakeTinyFamily(rng);
  Vector x(6);
  for (size_t i = 0; i < 6; ++i) x[i] = rng.Uniform(-2.0, 2.0);
  const std::vector<size_t> group = {0, 2, 3, 4, 5};
  ProximityEngine engine;
  constexpr int kThreads = 4;
#ifndef PW_OBS_DISABLED
  const obs::Counter* builds =
      obs::MetricsRegistry::Global().GetCounter("proximity.regressor_builds");
  const obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("proximity.cache_hits");
  const uint64_t builds_before = builds->value();
  const uint64_t hits_before = hits->value();
#endif
  std::vector<FamilyResiduals> results(kThreads);
  std::vector<Status> statuses(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together so the cold build races.
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kThreads) {
      }
      statuses[t] = engine.EvaluateFamily(family, 9, x, group, &results[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(engine.cache_size(), 1u);
#ifndef PW_OBS_DISABLED
  // Single-flight: one thread builds, the others wait for its entry.
  EXPECT_EQ(builds->value() - builds_before, 1u);
  EXPECT_EQ(hits->value() - hits_before, uint64_t{kThreads - 1});
#endif
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok());
    EXPECT_EQ(results[t].normal, results[0].normal);
    EXPECT_EQ(results[t].cases.values(), results[0].cases.values());
    EXPECT_EQ(results[t].drops.values(), results[0].drops.values());
  }
}

TEST(GroupCacheKeyTest, SensitiveToModelAndGroup) {
  EXPECT_NE(GroupCacheKey(1, {0, 1}), GroupCacheKey(2, {0, 1}));
  EXPECT_NE(GroupCacheKey(1, {0, 1}), GroupCacheKey(1, {0, 2}));
  EXPECT_EQ(GroupCacheKey(1, {0, 1}), GroupCacheKey(1, {0, 1}));
}

}  // namespace
}  // namespace phasorwatch::detect
