// Pins the exact output bits of the Jacobi solver and of one trained
// model. Every trained model and every cached Eq. 9 factor is built from
// ComputeSvd, so a change to its loops that reorders any double's
// operations moves low bits of every model; these digests catch that on
// small seeded inputs. The SVD digests were recorded from the
// column-walking solver the row-walking one replaced; the scatter-matrix
// digests pin the symmetric eigensolves training runs through it. The
// trained-model digest was recorded when ComputeSvd took those
// eigensolves over: a change to any training arithmetic must record a
// new one. The dataset digests pin the corpus those models train on:
// outage topologies, their admittances and every power-flow solve.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "detect/detector.h"
#include "eval/dataset.h"
#include "grid/ieee_cases.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "sim/pmu_network.h"

namespace phasorwatch::linalg {
namespace {

// FNV-1a over the shape and the bit pattern of every entry.
class Digest {
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
  void Add(const Matrix& m) {
    Add(uint64_t{m.rows()});
    Add(uint64_t{m.cols()});
    for (size_t i = 0; i < m.rows(); ++i) {
      for (size_t j = 0; j < m.cols(); ++j) Add(m(i, j));
    }
  }
  void Add(const Vector& v) {
    Add(uint64_t{v.size()});
    for (size_t i = 0; i < v.size(); ++i) Add(v[i]);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

Matrix SeededMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

// X^T X of a seeded rows x cols X: symmetric positive semidefinite.
Matrix Scatter(size_t rows, size_t cols, uint64_t seed) {
  Matrix x = SeededMatrix(rows, cols, seed);
  return x.TransposedTimes(x);
}

// A 60 x 8 matrix whose column 3 is zero and column 5 repeats column 1:
// rank 6, so the SVD completes two U columns by Gram-Schmidt.
Matrix RankDeficient() {
  Matrix m = SeededMatrix(60, 8, 7);
  for (size_t i = 0; i < m.rows(); ++i) {
    m(i, 3) = 0.0;
    m(i, 5) = m(i, 1);
  }
  return m;
}

uint64_t SvdDigest(const Matrix& a) {
  auto svd = ComputeSvd(a);
  EXPECT_TRUE(svd.ok()) << svd.status().ToString();
  if (!svd.ok()) return 0;
  Digest d;
  d.Add(svd->u);
  d.Add(svd->singular_values);
  d.Add(svd->v);
  return d.value();
}

TEST(KernelBitsTest, SvdTallShapes) {
  EXPECT_EQ(SvdDigest(SeededMatrix(60, 2, 1)), 0x0C2EAAF9CD9D6495ull);
  EXPECT_EQ(SvdDigest(SeededMatrix(60, 8, 2)), 0x891982647DB6D7BAull);
  EXPECT_EQ(SvdDigest(SeededMatrix(60, 16, 3)), 0x60588989A71F0280ull);
}

TEST(KernelBitsTest, SvdWideSwapsFactors) {
  EXPECT_EQ(SvdDigest(SeededMatrix(8, 60, 4)), 0x15B7F20794E57DFFull);
}

TEST(KernelBitsTest, SvdScatter) {
  EXPECT_EQ(SvdDigest(Scatter(100, 60, 5)), 0x0D9AE6B785A1863Bull);
}

TEST(KernelBitsTest, SvdRankDeficientCompletesU) {
  auto svd = ComputeSvd(RankDeficient());
  ASSERT_TRUE(svd.ok());
  EXPECT_EQ(svd->Rank(), 6u);
  EXPECT_EQ(SvdDigest(RankDeficient()), 0xAB61B24C10CDF77Aull);
}

TEST(KernelBitsTest, SvdOneByOne) {
  EXPECT_EQ(SvdDigest(Matrix{{-2.5}}), 0x91B900A05CBAAFC0ull);
}

// Scatter matrices X^T X are what training's eigensolves see.
TEST(KernelBitsTest, EigenScatter) {
  EXPECT_EQ(SvdDigest(Scatter(30, 8, 6)), 0x54021B7C916E4D32ull);
}

// The repeated column leaves a roundoff-level column the sweeps cannot
// orthogonalize; ComputeSvd drops it once they run out, so this digest
// also pins that step.
TEST(KernelBitsTest, EigenRankDeficientScatter) {
  const Matrix m = RankDeficient();
  const Matrix scatter = m.TransposedTimes(m);
  auto eig = ComputeSvd(scatter);
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();
  EXPECT_EQ(eig->Rank(), 6u);
  EXPECT_EQ(SvdDigest(scatter), 0xF6EEABD553580955ull);
}

// The smallest symmetric PSD input.
TEST(KernelBitsTest, EigenOneByOne) {
  EXPECT_EQ(SvdDigest(Matrix{{0.5}}), 0x400BCE12BD5C6849ull);
}

// The PWDET07 bytes of a small IEEE-14 model: the solver digests above
// pin the kernel, this pins everything training composes from it.
TEST(KernelBitsTest, TrainedModelBytes) {
  auto grid = grid::IeeeCase14();
  ASSERT_TRUE(grid.ok());
  auto network = sim::PmuNetwork::Build(*grid, 3);
  ASSERT_TRUE(network.ok());
  eval::DatasetOptions dopts;
  dopts.train_states = 10;
  dopts.train_samples_per_state = 6;
  dopts.test_states = 1;
  dopts.test_samples_per_state = 1;
  dopts.parallelism = 1;
  auto dataset = eval::BuildDataset(*grid, dopts, 77);
  ASSERT_TRUE(dataset.ok());
  detect::TrainingData training;
  training.normal = &dataset->normal.train;
  for (const auto& c : dataset->outages) {
    training.case_lines.push_back(c.line);
    training.outage.push_back(&c.train);
  }
  detect::DetectorOptions opts;
  opts.parallelism = 1;
  auto det = detect::OutageDetector::Train(*grid, *network, training, opts);
  ASSERT_TRUE(det.ok()) << det.status().ToString();
  std::ostringstream out;
  ASSERT_TRUE(det->Save(out).ok());
  const std::string bytes = out.str();
  Digest d;
  d.Add(uint64_t{bytes.size()});
  for (unsigned char c : bytes) d.Add(uint64_t{c});
  EXPECT_EQ(d.value(), 0x156D73BB47368FECull);
}

// Digest of a BuildDataset corpus: every case line, every skipped line,
// and every double of every train/test block, normal condition first.
uint64_t DatasetDigest(const grid::Grid& grid, size_t train_states,
                       size_t train_per_state, size_t test_states,
                       size_t test_per_state, uint64_t seed) {
  eval::DatasetOptions dopts;
  dopts.train_states = train_states;
  dopts.train_samples_per_state = train_per_state;
  dopts.test_states = test_states;
  dopts.test_samples_per_state = test_per_state;
  auto dataset = eval::BuildDataset(grid, dopts, seed);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  if (!dataset.ok()) return 0;
  Digest d;
  auto add_case = [&d](const eval::CaseData& c) {
    d.Add(c.train.vm);
    d.Add(c.train.va);
    d.Add(c.test.vm);
    d.Add(c.test.va);
  };
  add_case(dataset->normal);
  for (const eval::CaseData& c : dataset->outages) {
    d.Add(uint64_t{c.line.i});
    d.Add(uint64_t{c.line.j});
    add_case(c);
  }
  for (const grid::LineId& line : dataset->skipped_lines) {
    d.Add(uint64_t{line.i});
    d.Add(uint64_t{line.j});
  }
  return d.value();
}

TEST(KernelBitsTest, DatasetBytes) {
  auto ieee14 = grid::IeeeCase14();
  ASSERT_TRUE(ieee14.ok());
  // pwbench's fleet sizing and corpus seed.
  EXPECT_EQ(DatasetDigest(*ieee14, 16, 8, 6, 6, 55), 0x46FAD0CDF1ACB61Full);
  auto ieee30 = grid::IeeeCase30();
  ASSERT_TRUE(ieee30.ok());
  EXPECT_EQ(DatasetDigest(*ieee30, 4, 4, 2, 2, 55), 0x6228A70D1DB47BE3ull);
}

}  // namespace
}  // namespace phasorwatch::linalg
