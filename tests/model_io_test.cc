#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "detect/detector.h"
#include "eval/dataset.h"
#include "fuzz_mutations.h"
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
    /// The same training data at max_outage_lines = 2 (peel thresholds
    /// in the file).
    std::unique_ptr<OutageDetector> multi_detector;
  };
  static Shared* shared_;

  static void SetUpTestSuite() {
    auto grid = grid::IeeeCase14();
    PW_CHECK(grid.ok());
    auto network = sim::PmuNetwork::Build(*grid, 3);
    PW_CHECK(network.ok());
    shared_ = new Shared{std::move(grid).value(), std::move(network).value(),
                         nullptr, nullptr, nullptr};

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
    DetectorOptions multi_opts;
    multi_opts.max_outage_lines = 2;
    auto multi = OutageDetector::Train(shared_->grid, shared_->network,
                                       training, multi_opts);
    PW_CHECK(multi.ok());
    shared_->multi_detector =
        std::make_unique<OutageDetector>(std::move(multi).value());
  }

  static std::string Saved(const OutageDetector& det) {
    std::stringstream buffer;
    PW_CHECK(det.Save(buffer).ok());
    return buffer.str();
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
  // PWDET05 carries the multi-line options and the calibrated
  // per-(candidate, anchor) peel thresholds; a reloaded detector must
  // peel bit-identically, not just gate identically.
  OutageDetector* multi = shared_->multi_detector.get();
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

// The bytes a matrix is saved as (u64 rows, u64 cols, then the
// entries row by row), keeping only its first `rows` rows.
std::string MatrixBytes(const linalg::Matrix& m, size_t rows) {
  std::stringstream out;
  BinaryWriter w(out);
  w.WriteU64(rows);
  w.WriteU64(m.cols());
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < m.cols(); ++j) w.WriteDouble(m(i, j));
  }
  return out.str();
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST_F(ModelIoTest, ClassCoefficientsStoredOnce) {
  // Every line case shares the family base's coefficient matrix, so
  // the file holds it once, followed by the case means.
  for (const OutageDetector* det :
       {shared_->detector.get(), shared_->multi_detector.get()}) {
    const linalg::Matrix& basis =
        det->class_family().base().constraints.basis();
    ASSERT_GT(det->class_family().num_cases(), 1u);
    EXPECT_EQ(CountOccurrences(Saved(*det), MatrixBytes(basis, basis.rows())),
              1u);
  }
}

TEST_F(ModelIoTest, SaveOfLoadedModelIsByteIdentical) {
  // A trained detector holds nothing the file does not: saving a
  // reloaded model reproduces the original file byte for byte.
  for (const OutageDetector* det :
       {shared_->detector.get(), shared_->multi_detector.get()}) {
    const std::string saved = Saved(*det);
    std::stringstream in(saved);
    auto loaded = OutageDetector::Load(in, shared_->grid, shared_->network);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const std::string resaved = Saved(*loaded);
    EXPECT_EQ(resaved.size(), saved.size());
    EXPECT_TRUE(resaved == saved);
  }
}

TEST_F(ModelIoTest, ShortModelBasisRejectedAtLoad) {
  // Node 3's union-model basis with its last row dropped: the record is
  // well-formed and the stream stays aligned, but the basis no longer
  // spans the feature dimension, which Detect would index out of
  // range. Load must refuse it.
  const std::string full = Saved(*shared_->detector);
  const SubspaceModel& model = shared_->detector->node_subspaces(3).union_model;
  const linalg::Matrix& basis = model.constraints.basis();
  ASSERT_GT(basis.rows(), 1u);
  std::stringstream mean_bytes;
  BinaryWriter w(mean_bytes);
  w.WriteDoubleVector(model.mean.values());
  const std::string record =
      mean_bytes.str() + MatrixBytes(basis, basis.rows());
  const size_t at = full.find(record);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(full.rfind(record), at) << "node 3's record is not unique";
  const std::string corrupt = full.substr(0, at) + mean_bytes.str() +
                              MatrixBytes(basis, basis.rows() - 1) +
                              full.substr(at + record.size());
  std::stringstream in(corrupt);
  auto loaded = OutageDetector::Load(in, shared_->grid, shared_->network);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// Mutation replay: Load parses outside bytes, so on any input it must
// return a Status, and a model it accepts must be safe to run: one
// complete and one masked Detect each return (ok or not) instead of
// aborting. Returns whether the bytes loaded. The ASan and UBSan suite
// lanes run both replays below.
bool ReplayLoad(const std::string& bytes, const eval::Dataset& dataset,
                const grid::Grid& grid, const sim::PmuNetwork& network) {
  const size_t n = grid.num_buses();
  const auto& outage = dataset.outages[0];
  auto [vm, va] = outage.test.Sample(0);
  const sim::MissingMask masks[] = {sim::MissingMask::None(n),
                                    sim::MissingAtOutage(n, outage.line)};
  std::stringstream in(bytes);
  auto loaded = OutageDetector::Load(in, grid, network);
  if (!loaded.ok()) {
    EXPECT_FALSE(loaded.status().message().empty());
    return false;
  }
  for (const sim::MissingMask& mask : masks) {
    static_cast<void>(loaded->Detect(vm, va, mask).ok());
  }
  return true;
}

TEST_F(ModelIoTest, TruncationAtAnyPrefixReturnsStatus) {
  // Every prefix of the header, options, cases and first model records,
  // then cuts spread over the whole layout, of a single- and a two-line
  // save. A proper prefix is a truncated file: it must never load.
  constexpr size_t kDenseCuts = 4096;
  constexpr size_t kSpreadCuts = 256;
  for (const OutageDetector* det :
       {shared_->detector.get(), shared_->multi_detector.get()}) {
    const std::string bytes = Saved(*det);
    auto replay = [&](size_t len) {
      return ReplayLoad(bytes.substr(0, len), *shared_->dataset,
                        shared_->grid, shared_->network);
    };
    for (size_t len = 0; len < std::min(kDenseCuts, bytes.size()); ++len) {
      EXPECT_FALSE(replay(len)) << "prefix " << len;
    }
    for (size_t k = 0; k < kSpreadCuts; ++k) {
      const size_t len = bytes.size() * k / kSpreadCuts;
      EXPECT_FALSE(replay(len)) << "prefix " << len;
    }
  }
}

TEST_F(ModelIoTest, SingleByteCorruptionNeverCrashes) {
  // Seeded mutations of a single- and a two-line save: bit flips in a
  // few bytes, deleted byte runs, and splices between the two files.
  const std::vector<std::string> corpus = {Saved(*shared_->detector),
                                           Saved(*shared_->multi_detector)};
  constexpr uint64_t kSeed = 0x7077646574ULL;
  constexpr uint64_t kMutations = 2000;
  size_t loaded_mutants = 0;
  for (uint64_t stream = 0; stream < kMutations; ++stream) {
    SCOPED_TRACE("mutation stream " + std::to_string(stream));
    loaded_mutants += ReplayLoad(MutateCorpus(corpus, kSeed, stream),
                                 *shared_->dataset, shared_->grid,
                                 shared_->network)
                          ? 1
                          : 0;
  }
  // Most bit flips land in floating-point payload and load; the replay
  // must have exercised Detect on corrupt models, not only the parser.
  EXPECT_GT(loaded_mutants, 0u);
}

TEST_F(ModelIoTest, GarbageAfterValidHeaderReturnsStatus) {
  // A well-formed magic followed by junk: the reader must fail on the
  // first implausible field instead of trusting embedded lengths.
  std::stringstream buffer;
  BinaryWriter w(buffer);
  w.WriteU64(0x5057444554303700ull);  // current magic ("PWDET07\0")
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
  // PWDET06 files carry three detector settings PWDET07 does not (the
  // channel, line window and group cap), PWDET05 files six more, and
  // PWDET04 files per-line models besides; an older file must be
  // refused as unreadable, not misparsed into a detector with
  // misaligned records.
  std::stringstream buffer;
  ASSERT_TRUE(shared_->detector->Save(buffer).ok());
  std::string full = buffer.str();
  // The magic is a little-endian u64 of "PWDET07\0"; the version digit
  // '7' lands at byte 1 of the stream.
  ASSERT_EQ(full[1], '7');
  full[1] = '6';
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
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteDoubleVector({1.0, -2.0});
  w.WriteSizeVector({9, 0, 5});

  BinaryReader r(buffer);
  EXPECT_EQ(r.ReadU64().value(), 42u);
  EXPECT_DOUBLE_EQ(r.ReadDouble().value(), 3.25);
  EXPECT_TRUE(r.ReadBool().value());
  EXPECT_EQ(r.ReadDoubleVector(2).value(), (std::vector<double>{1.0, -2.0}));
  EXPECT_EQ(r.ReadSizeVector(3).value(), (std::vector<size_t>{9, 0, 5}));
}

TEST(BinaryRoundTripTest, ReaderFailsOnEmptyStream) {
  std::stringstream buffer;
  BinaryReader r(buffer);
  EXPECT_FALSE(r.ReadU64().ok());
  EXPECT_FALSE(r.ReadDoubleVector(1).ok());
}

}  // namespace
}  // namespace phasorwatch::detect
