#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "detect/subspace_model.h"
#include "linalg/svd.h"

namespace phasorwatch::detect {
namespace {

using linalg::Matrix;
using linalg::Vector;

// Gaussian data with per-axis standard deviations `sigma` around `mean`
// (axis-aligned covariance keeps expectations easy to verify).
sim::PhasorDataSet AxisData(const Vector& mean, const Vector& sigma,
                            size_t samples, Rng& rng) {
  const size_t n = mean.size();
  sim::PhasorDataSet data;
  data.vm = Matrix(n, samples, 1.0);
  data.va = Matrix(n, samples);
  for (size_t t = 0; t < samples; ++t) {
    for (size_t i = 0; i < n; ++i) {
      data.va(i, t) = rng.Normal(mean[i], sigma[i]);
    }
  }
  return data;
}

SubspaceModelOptions FullBasisOptions() {
  SubspaceModelOptions opts;
  opts.keep_full_basis = true;
  return opts;
}

TEST(WhitenedModelTest, RequiresFullBasis) {
  Rng rng(1);
  Vector mean(4);
  Vector sigma{0.1, 0.1, 0.01, 0.01};
  auto data = AxisData(mean, sigma, 300, rng);
  SubspaceModelOptions opts = FullBasisOptions();
  auto model = LearnSubspaceModel(data.va, opts);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->full_basis.empty());
  EXPECT_EQ(model->full_basis.rows(), 4u);
  // Without the flag the basis stays empty.
  opts.keep_full_basis = false;
  auto slim = LearnSubspaceModel(data.va, opts);
  ASSERT_TRUE(slim.ok());
  EXPECT_TRUE(slim->full_basis.empty());
}

TEST(WhitenedModelTest, MahalanobisScalesByVariance) {
  Rng rng(2);
  Vector mean(4);
  Vector sigma{0.2, 0.2, 0.002, 0.002};
  auto data = AxisData(mean, sigma, 2000, rng);
  auto reference = LearnSubspaceModel(data.va, FullBasisOptions());
  ASSERT_TRUE(reference.ok());
  SubspaceModel cls =
      MakeWhitenedClassModel(*reference, reference->mean, 2000);
  // A unit step along a high-variance axis costs far less than along a
  // low-variance axis.
  Vector high = reference->mean;
  high[0] += 0.1;
  Vector low = reference->mean;
  low[2] += 0.1;
  EXPECT_GT(cls.Proximity(low), 20.0 * cls.Proximity(high));
}

TEST(WhitenedModelTest, ZeroAtItsMean) {
  Rng rng(3);
  Vector mean{1.0, -1.0, 0.5};
  Vector sigma{0.05, 0.05, 0.05};
  auto data = AxisData(mean, sigma, 500, rng);
  auto reference = LearnSubspaceModel(data.va, FullBasisOptions());
  ASSERT_TRUE(reference.ok());
  Vector shifted = reference->mean;
  shifted[1] += 0.7;
  SubspaceModel cls = MakeWhitenedClassModel(*reference, shifted, 500);
  EXPECT_NEAR(cls.Proximity(shifted), 0.0, 1e-9);
  EXPECT_GT(cls.Proximity(reference->mean), 1.0);
}

TEST(WhitenedModelTest, SharedCovarianceAcrossClassModels) {
  // Two class models from the same reference must assign the same cost
  // to the same displacement (LDA with shared covariance).
  Rng rng(4);
  Vector mean(3);
  Vector sigma{0.1, 0.02, 0.01};
  auto data = AxisData(mean, sigma, 800, rng);
  auto reference = LearnSubspaceModel(data.va, FullBasisOptions());
  ASSERT_TRUE(reference.ok());
  Vector mean_a = reference->mean;
  Vector mean_b = reference->mean;
  mean_b[0] += 1.0;
  SubspaceModel a = MakeWhitenedClassModel(*reference, mean_a, 800);
  SubspaceModel b = MakeWhitenedClassModel(*reference, mean_b, 800);
  Vector displacement{0.03, -0.01, 0.02};
  Vector xa = mean_a;
  Vector xb = mean_b;
  for (size_t i = 0; i < 3; ++i) {
    xa[i] += displacement[i];
    xb[i] += displacement[i];
  }
  EXPECT_NEAR(a.Proximity(xa), b.Proximity(xb), 1e-9);
}

TEST(SubspaceFastPathTest, CovarianceAndSvdPathsAgree) {
  // T > N triggers the scatter-matrix eigensolve; T <= N the Jacobi
  // SVD. Both must produce the same spectrum and equivalent constraint
  // spaces on the same data.
  Rng rng(5);
  Vector mean(6);
  Vector sigma{0.3, 0.2, 0.1, 0.003, 0.002, 0.001};
  auto wide = AxisData(mean, sigma, 400, rng);  // fast path
  auto fast = LearnSubspaceModel(wide.va, {});
  ASSERT_TRUE(fast.ok());

  // Narrow copy of the same samples (first 6 columns) uses the SVD
  // path; spectra can differ (different data), so instead verify the
  // fast path's spectrum against a direct SVD of the same wide matrix.
  Matrix x = wide.va;
  for (size_t i = 0; i < x.rows(); ++i) {
    double m = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) m += x(i, c);
    m /= static_cast<double>(x.cols());
    for (size_t c = 0; c < x.cols(); ++c) x(i, c) -= m;
  }
  auto svd = linalg::ComputeSvd(x);
  ASSERT_TRUE(svd.ok());
  for (size_t j = 0; j < 6; ++j) {
    EXPECT_NEAR(fast->singular_values[j], svd->singular_values[j],
                1e-6 * svd->singular_values[0])
        << "j=" << j;
  }
  // The constraint space must coincide with the SVD's trailing left
  // singular vectors (up to sign): compare via principal angles.
  size_t k = fast->constraints.dim();
  std::vector<size_t> cols;
  for (size_t j = 6 - k; j < 6; ++j) cols.push_back(j);
  linalg::Subspace svd_space =
      linalg::Subspace::FromOrthonormal(svd->u.SelectCols(cols));
  auto cosines =
      linalg::Subspace::PrincipalAngleCosines(fast->constraints, svd_space);
  ASSERT_TRUE(cosines.ok());
  for (size_t j = 0; j < cosines->size(); ++j) {
    EXPECT_GT((*cosines)[j], 0.999) << "angle " << j;
  }
}

}  // namespace
}  // namespace phasorwatch::detect
