#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "detect/detector.h"
#include "eval/dataset.h"
#include "grid/ieee_cases.h"
#include "sim/missing_data.h"

namespace phasorwatch::detect {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  struct Shared {
    grid::Grid grid;
    sim::PmuNetwork network;
    std::unique_ptr<eval::Dataset> dataset;
    std::unique_ptr<OutageDetector> detector;
  };
  static Shared* shared_;

  static void SetUpTestSuite() {
    auto grid = grid::IeeeCase14();
    PW_CHECK(grid.ok());
    auto network = sim::PmuNetwork::Build(*grid, 3);
    PW_CHECK(network.ok());
    shared_ = new Shared{std::move(grid).value(), std::move(network).value(),
                         nullptr, nullptr};

    eval::DatasetOptions dopts;
    dopts.train_states = 14;
    dopts.train_samples_per_state = 8;
    dopts.test_states = 5;
    dopts.test_samples_per_state = 5;
    auto dataset = eval::BuildDataset(shared_->grid, dopts, 808);
    PW_CHECK(dataset.ok());
    shared_->dataset =
        std::make_unique<eval::Dataset>(std::move(dataset).value());

    TrainingData training;
    training.normal = &shared_->dataset->normal.train;
    for (const auto& c : shared_->dataset->outages) {
      training.case_lines.push_back(c.line);
      training.outage.push_back(&c.train);
    }
    auto det = OutageDetector::Train(shared_->grid, shared_->network,
                                     training, {});
    PW_CHECK(det.ok());
    shared_->detector =
        std::make_unique<OutageDetector>(std::move(det).value());
  }

  static void TearDownTestSuite() {
    delete shared_;
    shared_ = nullptr;
  }
};

ModelIoTest::Shared* ModelIoTest::shared_ = nullptr;

TEST_F(ModelIoTest, SaveLoadRoundTripPreservesDecisions) {
  std::stringstream buffer;
  ASSERT_TRUE(shared_->detector->Save(buffer).ok());

  auto loaded =
      OutageDetector::Load(buffer, shared_->grid, shared_->network);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Every decision the loaded detector makes must match the original,
  // complete and masked, across several cases.
  for (size_t c = 0; c < 5 && c < shared_->dataset->outages.size(); ++c) {
    const auto& outage = shared_->dataset->outages[c];
    for (size_t t = 0; t < 4; ++t) {
      auto [vm, va] = outage.test.Sample(t);
      sim::MissingMask mask =
          sim::MissingAtOutage(shared_->grid.num_buses(), outage.line);
      for (const auto& m :
           {sim::MissingMask::None(shared_->grid.num_buses()), mask}) {
        auto a = shared_->detector->Detect(vm, va, m);
        auto b = loaded->Detect(vm, va, m);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a->outage_detected, b->outage_detected);
        ASSERT_EQ(a->lines.size(), b->lines.size());
        for (size_t k = 0; k < a->lines.size(); ++k) {
          EXPECT_EQ(a->lines[k], b->lines[k]);
        }
        EXPECT_NEAR(a->decision_score, b->decision_score, 1e-12);
      }
    }
  }
  // Normal samples too.
  auto [vm, va] = shared_->dataset->normal.test.Sample(0);
  auto a = shared_->detector->Detect(vm, va);
  auto b = loaded->Detect(vm, va);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->outage_detected, b->outage_detected);
}

TEST_F(ModelIoTest, MultiLineRoundTripPreservesOutageSets) {
  // PWDET04 carries the multi-line options and the calibrated
  // per-(candidate, anchor) peel thresholds; a reloaded detector must
  // peel bit-identically, not just gate identically.
  TrainingData training;
  training.normal = &shared_->dataset->normal.train;
  for (const auto& c : shared_->dataset->outages) {
    training.case_lines.push_back(c.line);
    training.outage.push_back(&c.train);
  }
  DetectorOptions opts;
  opts.max_outage_lines = 2;
  auto multi = OutageDetector::Train(shared_->grid, shared_->network,
                                     training, opts);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();

  std::stringstream buffer;
  ASSERT_TRUE(multi->Save(buffer).ok());
  auto loaded = OutageDetector::Load(buffer, shared_->grid, shared_->network);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Load rebuilds the class family (mean shifts, complete-data shift
  // energies) from the stored class means, and masked samples build the
  // masked-coordinate energies afresh in the loaded detector's cache:
  // both must reproduce the trained detector's scores bit for bit.
  const size_t n = shared_->grid.num_buses();
  Rng mask_rng(4040);
  size_t identified = 0, masked_identified = 0;
  for (size_t c = 0; c < 5 && c < shared_->dataset->outages.size(); ++c) {
    const auto& outage = shared_->dataset->outages[c];
    for (size_t t = 0; t < 4; ++t) {
      auto [vm, va] = outage.test.Sample(t);
      const sim::MissingMask masks[] = {
          sim::MissingMask::None(n), sim::MissingAtOutage(n, outage.line),
          sim::MissingRandom(n, 3, {}, mask_rng)};
      for (const sim::MissingMask& mask : masks) {
        auto a = multi->Detect(vm, va, mask);
        auto b = loaded->Detect(vm, va, mask);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a->outage_detected, b->outage_detected);
        EXPECT_EQ(a->decision_score, b->decision_score);
        ASSERT_EQ(a->outage_set.size(), b->outage_set.size());
        for (size_t k = 0; k < a->outage_set.size(); ++k) {
          EXPECT_EQ(a->outage_set[k].line, b->outage_set[k].line);
          EXPECT_EQ(a->outage_set[k].confidence,
                    b->outage_set[k].confidence);
        }
        identified += a->outage_set.size();
        if (&mask != &masks[0]) masked_identified += a->outage_set.size();
      }
    }
  }
  EXPECT_GT(identified, 0u);
  EXPECT_GT(masked_identified, 0u);
}

TEST_F(ModelIoTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/pw_model.bin";
  ASSERT_TRUE(shared_->detector->SaveToFile(path).ok());
  auto loaded =
      OutageDetector::LoadFromFile(path, shared_->grid, shared_->network);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ellipses().size(), shared_->grid.num_buses());
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, RejectsWrongMagic) {
  std::stringstream buffer;
  BinaryWriter w(buffer);
  w.WriteU64(0xDEADBEEFull);
  auto loaded =
      OutageDetector::Load(buffer, shared_->grid, shared_->network);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, RejectsMismatchedGrid) {
  std::stringstream buffer;
  ASSERT_TRUE(shared_->detector->Save(buffer).ok());
  auto other_grid = grid::IeeeCase30();
  ASSERT_TRUE(other_grid.ok());
  auto other_network = sim::PmuNetwork::Build(*other_grid, 3);
  ASSERT_TRUE(other_network.ok());
  auto loaded = OutageDetector::Load(buffer, *other_grid, *other_network);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ModelIoTest, RejectsMismatchedClustering) {
  std::stringstream buffer;
  ASSERT_TRUE(shared_->detector->Save(buffer).ok());
  auto other_network = sim::PmuNetwork::Build(shared_->grid, 4);
  ASSERT_TRUE(other_network.ok());
  auto loaded =
      OutageDetector::Load(buffer, shared_->grid, *other_network);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ModelIoTest, RejectsTruncatedStream) {
  std::stringstream buffer;
  ASSERT_TRUE(shared_->detector->Save(buffer).ok());
  std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 3));
  auto loaded =
      OutageDetector::Load(truncated, shared_->grid, shared_->network);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(ModelIoTest, TruncationAtAnyPrefixReturnsStatus) {
  std::stringstream buffer;
  ASSERT_TRUE(shared_->detector->Save(buffer).ok());
  std::string full = buffer.str();
  // A sweep of prefix lengths across the whole layout: header, option
  // block, models, ellipses, groups. Every cut must surface as a
  // Status — never a crash, never a silently half-loaded model.
  const size_t cuts = 32;
  for (size_t k = 0; k < cuts; ++k) {
    size_t len = full.size() * k / cuts;
    std::stringstream truncated(full.substr(0, len));
    auto loaded =
        OutageDetector::Load(truncated, shared_->grid, shared_->network);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
  }
}

TEST_F(ModelIoTest, SingleByteCorruptionNeverCrashes) {
  std::stringstream buffer;
  ASSERT_TRUE(shared_->detector->Save(buffer).ok());
  const std::string full = buffer.str();
  // Flip one byte at positions spread over the file. Structural fields
  // (magic, fingerprint, counts, sizes) must reject via Status; flips
  // landing in floating-point payload may load — either way the call
  // returns instead of crashing.
  const size_t flips = 24;
  for (size_t k = 0; k < flips; ++k) {
    std::string corrupt = full;
    corrupt[full.size() * k / flips] ^= 0xFF;
    std::stringstream in(corrupt);
    auto loaded = OutageDetector::Load(in, shared_->grid, shared_->network);
    static_cast<void>(loaded.ok());
  }
}

TEST_F(ModelIoTest, ClassModelWithForeignCoefficientsRejected) {
  // Every line case's class model is stored with the family base's
  // coefficient matrix; Load keeps only the case means, so a file whose
  // class models disagree with the base must be refused, not silently
  // scored with the base's coefficients.
  std::stringstream buffer;
  ASSERT_TRUE(shared_->detector->Save(buffer).ok());
  const std::string full = buffer.str();
  std::stringstream basis_bytes;
  BinaryWriter w(basis_bytes);
  const linalg::Matrix& basis =
      shared_->detector->class_family().base().constraints.basis();
  w.WriteU64(basis.rows());
  w.WriteU64(basis.cols());
  for (size_t i = 0; i < basis.rows(); ++i) {
    for (size_t j = 0; j < basis.cols(); ++j) w.WriteDouble(basis(i, j));
  }
  const std::string needle = basis_bytes.str();
  // The base comes first, then one copy per case.
  const size_t base_at = full.find(needle);
  ASSERT_NE(base_at, std::string::npos);
  const size_t first_case_at = full.find(needle, base_at + needle.size());
  ASSERT_NE(first_case_at, std::string::npos);
  std::string corrupt = full;
  corrupt[first_case_at + needle.size() / 2] ^= 0x01;
  std::stringstream in(corrupt);
  auto loaded = OutageDetector::Load(in, shared_->grid, shared_->network);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, GarbageAfterValidHeaderReturnsStatus) {
  // A well-formed magic followed by junk: the reader must fail on the
  // first implausible field instead of trusting embedded lengths.
  std::stringstream buffer;
  BinaryWriter w(buffer);
  w.WriteU64(0x5057444554303400ull);  // current magic ("PWDET04\0")
  for (size_t i = 0; i < 4096; ++i) {
    buffer.put(static_cast<char>(i * 37 + 11));
  }
  auto loaded = OutageDetector::Load(buffer, shared_->grid, shared_->network);
  ASSERT_FALSE(loaded.ok());
}

TEST_F(ModelIoTest, PureGarbageStreamReturnsStatus) {
  std::stringstream buffer(std::string(1024, '\xAB'));
  auto loaded = OutageDetector::Load(buffer, shared_->grid, shared_->network);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, EmptyFileReturnsStatus) {
  std::string path = ::testing::TempDir() + "/pw_empty_model.bin";
  { std::ofstream touch(path, std::ios::binary); }
  auto loaded =
      OutageDetector::LoadFromFile(path, shared_->grid, shared_->network);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, OldFormatVersionRejected) {
  // PWDET03 files predate the multi-line identification options; they
  // must be refused as unreadable, not misparsed into a detector with
  // garbage options.
  std::stringstream buffer;
  ASSERT_TRUE(shared_->detector->Save(buffer).ok());
  std::string full = buffer.str();
  // The magic is a little-endian u64 of "PWDET04\0"; the version digit
  // '4' lands at byte 1 of the stream.
  ASSERT_EQ(full[1], '4');
  full[1] = '3';
  std::stringstream in(full);
  auto loaded = OutageDetector::Load(in, shared_->grid, shared_->network);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, UntrainedDetectorRefusesToSave) {
  OutageDetector untrained;
  std::stringstream buffer;
  EXPECT_FALSE(untrained.Save(buffer).ok());
}

TEST(BinaryRoundTripTest, PrimitivesRoundTrip) {
  std::stringstream buffer;
  BinaryWriter w(buffer);
  w.WriteU64(42);
  w.WriteI64(-7);
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteString("phasor");
  w.WriteDoubleVector({1.0, -2.0});
  w.WriteSizeVector({9, 0, 5});

  BinaryReader r(buffer);
  EXPECT_EQ(r.ReadU64().value(), 42u);
  EXPECT_EQ(r.ReadI64().value(), -7);
  EXPECT_DOUBLE_EQ(r.ReadDouble().value(), 3.25);
  EXPECT_TRUE(r.ReadBool().value());
  EXPECT_EQ(r.ReadString().value(), "phasor");
  EXPECT_EQ(r.ReadDoubleVector().value(), (std::vector<double>{1.0, -2.0}));
  EXPECT_EQ(r.ReadSizeVector().value(), (std::vector<size_t>{9, 0, 5}));
}

TEST(BinaryRoundTripTest, ReaderFailsOnEmptyStream) {
  std::stringstream buffer;
  BinaryReader r(buffer);
  EXPECT_FALSE(r.ReadU64().ok());
  EXPECT_FALSE(r.ReadString().ok());
}

}  // namespace
}  // namespace phasorwatch::detect
