#include "detect/fleet.h"

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "detect/session.h"
#include "eval/dataset.h"
#include "fuzz_mutations.h"
#include "grid/ieee_cases.h"

namespace phasorwatch::detect {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  struct Shared {
    grid::Grid grid;
    sim::PmuNetwork network;
    std::unique_ptr<eval::Dataset> dataset;
    std::shared_ptr<OutageDetector> detector;
    /// The same training data at max_outage_lines = 2 (votes carry
    /// per-line confidences).
    std::shared_ptr<OutageDetector> multi_detector;
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
    dopts.train_states = 16;
    dopts.train_samples_per_state = 8;
    dopts.test_states = 6;
    dopts.test_samples_per_state = 6;
    auto dataset = eval::BuildDataset(shared_->grid, dopts, 55);
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
        std::make_shared<OutageDetector>(std::move(det).value());
    DetectorOptions multi_opts;
    multi_opts.max_outage_lines = 2;
    auto multi = OutageDetector::Train(shared_->grid, shared_->network,
                                       training, multi_opts);
    PW_CHECK(multi.ok());
    shared_->multi_detector =
        std::make_shared<OutageDetector>(std::move(multi).value());
  }

  static void TearDownTestSuite() {
    delete shared_;
    shared_ = nullptr;
  }

  /// `count` frames alternating as requested, timestamps advancing.
  static std::vector<sim::MeasurementFrame> MakeFrames(size_t outage_frames,
                                                       size_t normal_frames) {
    std::vector<sim::MeasurementFrame> frames;
    const auto& outage = shared_->dataset->outages[0].test;
    const auto& normal = shared_->dataset->normal.test;
    uint64_t ts = 1000;
    for (size_t t = 0; t < outage_frames; ++t, ts += 1000) {
      frames.push_back(sim::MeasurementFrame::FromDataSet(
          outage, t % outage.num_samples(), ts));
    }
    for (size_t t = 0; t < normal_frames; ++t, ts += 1000) {
      frames.push_back(sim::MeasurementFrame::FromDataSet(
          normal, t % normal.num_samples(), ts));
    }
    return frames;
  }

  static TenantConfig Config(const std::string& name) {
    TenantConfig config;
    config.name = name;
    config.detector = shared_->detector;
    config.stream.alarm_after = 2;
    config.stream.clear_after = 2;
    return config;
  }
};

FleetTest::Shared* FleetTest::shared_ = nullptr;

void ExpectSameSnapshot(const TenantSnapshot& a, const TenantSnapshot& b) {
  EXPECT_EQ(a.next_sample_index, b.next_sample_index);
  EXPECT_EQ(a.alarm_active, b.alarm_active);
  EXPECT_EQ(a.consecutive_positive, b.consecutive_positive);
  EXPECT_EQ(a.consecutive_negative, b.consecutive_negative);
  EXPECT_EQ(a.recent_votes, b.recent_votes);
  EXPECT_EQ(a.last_timestamp_us, b.last_timestamp_us);
  EXPECT_EQ(a.has_timestamp, b.has_timestamp);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.samples_rejected, b.samples_rejected);
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.frames_stale, b.frames_stale);
  EXPECT_EQ(a.alarms_raised, b.alarms_raised);
  EXPECT_EQ(a.alarms_cleared, b.alarms_cleared);
}

// A single-tenant fleet must land in exactly the state a serial
// TenantSession reaches on the same frame stream (the engine drives one
// session per tenant, so full-state snapshots must match).
TEST_F(FleetTest, SingleTenantFleetMatchesSerialSession) {
  auto frames = MakeFrames(6, 6);
  // Throw in transport faults the screen must catch identically.
  frames[3].dropped = true;
  frames[9].timestamp_us = frames[8].timestamp_us;  // stale

  StreamOptions sopts;
  sopts.alarm_after = 2;
  sopts.clear_after = 2;
  TenantSession monitor(shared_->detector, sopts);
  for (const auto& frame : frames) {
    ASSERT_TRUE(monitor.ProcessFrame(frame).ok());
  }

  FleetOptions fopts;
  fopts.num_shards = 1;
  FleetEngine engine(fopts);
  auto tenant = engine.AddTenant(Config("grid-a"));
  ASSERT_TRUE(tenant.ok());
  engine.Start();
  for (const auto& frame : frames) {
    ASSERT_TRUE(engine.Submit(*tenant, frame).ok());
  }
  engine.Flush();
  engine.Stop();

  EXPECT_EQ(engine.frames_submitted(), frames.size());
  EXPECT_EQ(engine.frames_shed(), 0u);
  EXPECT_EQ(engine.frames_processed(), frames.size());

  ExpectSameSnapshot(engine.SnapshotTenant(*tenant).value(),
                     monitor.Snapshot());
  EXPECT_EQ(engine.session(*tenant).alarm_active(), monitor.alarm_active());
}

TEST_F(FleetTest, BackpressureRejectsWhenRingFull) {
  FleetOptions fopts;
  fopts.num_shards = 1;
  fopts.queue_capacity = 4;  // 3 usable slots
  FleetEngine engine(fopts);
  auto tenant = engine.AddTenant(Config("grid-a"));
  ASSERT_TRUE(tenant.ok());

  // Not started: nothing drains, so the ring fills deterministically.
  auto frames = MakeFrames(4, 0);
  for (size_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(engine.Submit(*tenant, frames[k]).ok());
  }
  Status full = engine.Submit(*tenant, frames[3]);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted) << full.ToString();
  EXPECT_EQ(engine.frames_shed(), 1u);
  EXPECT_EQ(engine.frames_submitted(), 4u);

  // Accepted frames survive the shed and drain on Start.
  engine.Start();
  engine.Flush();
  engine.Stop();
  EXPECT_EQ(engine.frames_processed(), 3u);
  EXPECT_EQ(engine.session(*tenant).samples_processed(), 3u);
}

TEST_F(FleetTest, RejectsUnknownTenantAndBadConfigs) {
  FleetEngine engine;
  auto frames = MakeFrames(1, 0);
  EXPECT_EQ(engine.Submit(7, frames[0]).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.SnapshotTenant(7).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.RestoreTenant(7, TenantSnapshot{}).code(),
            StatusCode::kNotFound);

  TenantConfig null_detector = Config("bad");
  null_detector.detector = nullptr;
  EXPECT_EQ(engine.AddTenant(std::move(null_detector)).status().code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(engine.AddTenant(Config("grid-a")).ok());
  engine.Start();
  EXPECT_EQ(engine.AddTenant(Config("late")).status().code(),
            StatusCode::kFailedPrecondition);
  engine.Stop();
}

TEST_F(FleetTest, TenantRowsReportShardPinningAndCounters) {
  FleetOptions fopts;
  fopts.num_shards = 2;
  FleetEngine engine(fopts);
  // Shard histograms are process-wide (metrics registry), so measure
  // this test's contribution as a delta.
  const uint64_t latency_before = engine.LatencySnapshot().count;
  std::vector<TenantId> ids;
  for (int k = 0; k < 5; ++k) {
    auto id = engine.AddTenant(Config("grid-" + std::to_string(k)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  engine.Start();
  auto frames = MakeFrames(2, 0);
  for (TenantId id : ids) {
    for (const auto& frame : frames) {
      ASSERT_TRUE(engine.Submit(id, frame).ok());
    }
  }
  engine.Flush();
  engine.Stop();

  auto rows = engine.TenantRows();
  ASSERT_EQ(rows.size(), 5u);
  for (size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(rows[k].id, ids[k]);
    EXPECT_EQ(rows[k].name, "grid-" + std::to_string(k));
    EXPECT_EQ(rows[k].shard, k % 2);  // round-robin pinning
    EXPECT_EQ(rows[k].samples, frames.size());
  }
  // Latency histogram saw every frame.
  EXPECT_EQ(engine.LatencySnapshot().count - latency_before,
            5 * frames.size());
}

// Failover: snapshot mid-stream, serialize, restore into a second
// engine's tenant, and feed both the same tail — final states must be
// bit-identical.
TEST_F(FleetTest, SnapshotRestoreRoundTripResumesIdentically) {
  auto frames = MakeFrames(5, 5);
  const size_t kSplit = 4;

  FleetOptions fopts;
  fopts.num_shards = 1;
  FleetEngine primary(fopts);
  auto tenant_a = primary.AddTenant(Config("grid-a"));
  ASSERT_TRUE(tenant_a.ok());
  primary.Start();
  for (size_t k = 0; k < kSplit; ++k) {
    ASSERT_TRUE(primary.Submit(*tenant_a, frames[k]).ok());
  }
  primary.Flush();
  auto mid = primary.SnapshotTenant(*tenant_a);  // engine still running
  ASSERT_TRUE(mid.ok());

  // Binary round trip (what failover actually ships).
  std::stringstream buffer;
  ASSERT_TRUE(mid->WriteTo(buffer).ok());
  auto restored = TenantSnapshot::ReadFrom(buffer);
  ASSERT_TRUE(restored.ok());
  ExpectSameSnapshot(*restored, *mid);

  FleetEngine standby(fopts);
  auto tenant_b = standby.AddTenant(Config("grid-a"));
  ASSERT_TRUE(tenant_b.ok());
  standby.Start();
  ASSERT_TRUE(standby.RestoreTenant(*tenant_b, *restored).ok());

  for (size_t k = kSplit; k < frames.size(); ++k) {
    ASSERT_TRUE(primary.Submit(*tenant_a, frames[k]).ok());
    ASSERT_TRUE(standby.Submit(*tenant_b, frames[k]).ok());
  }
  primary.Flush();
  standby.Flush();
  primary.Stop();
  standby.Stop();

  ExpectSameSnapshot(standby.SnapshotTenant(*tenant_b).value(),
                     primary.SnapshotTenant(*tenant_a).value());
}

TEST_F(FleetTest, SnapshotReadRejectsCorruptStream) {
  TenantSnapshot snapshot;
  snapshot.next_sample_index = 3;
  std::stringstream buffer;
  ASSERT_TRUE(snapshot.WriteTo(buffer).ok());
  std::string bytes = buffer.str();
  bytes[0] ^= 0xff;  // break the PWSNAP02 magic
  std::stringstream corrupt(bytes);
  auto result = TenantSnapshot::ReadFrom(corrupt);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// The PWSNAP02 header up to (not including) the vote count: magic,
// next sample index, alarm flag and the two debounce counters.
std::string SnapshotHeaderBytes() {
  std::stringstream buffer;
  PW_CHECK(TenantSnapshot{}.WriteTo(buffer).ok());
  return buffer.str().substr(0, 8 + 8 + 1 + 8 + 8);
}

TEST_F(FleetTest, SnapshotLengthPrefixesAreCapped) {
  // A corrupt vote length is refused by its cap before any element is
  // read (no oversized buffer), and a confidence vector may not be
  // longer than its vote.
  auto read = [](const std::string& bytes) {
    std::stringstream in(bytes);
    return TenantSnapshot::ReadFrom(in);
  };
  std::stringstream vote_bytes;
  BinaryWriter vote(vote_bytes);
  vote.WriteU64(1);  // one vote
  vote.WriteU64(2 * TenantSnapshot::kMaxVoteLines + 1);
  auto too_long = read(SnapshotHeaderBytes() + vote_bytes.str());
  ASSERT_FALSE(too_long.ok());
  EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(too_long.status().message(), "vector length exceeds limit");

  std::stringstream confidence_bytes;
  BinaryWriter confidence(confidence_bytes);
  confidence.WriteU64(1);  // one vote of one line
  confidence.WriteSizeVector({0, 1});
  confidence.WriteU64(1);  // one confidence vector, two entries long
  confidence.WriteU64(2);
  auto misaligned = read(SnapshotHeaderBytes() + confidence_bytes.str());
  ASSERT_FALSE(misaligned.ok());
  EXPECT_EQ(misaligned.status().message(), "vector length exceeds limit");
}

// Snapshot replay: ReadFrom parses outside bytes, so on any input it
// must return a Status or a snapshot that Restore accepts or refuses
// with a Status; a restored session must then take a frame. Returns
// whether the bytes restored. The ASan and UBSan suite lanes run both
// replays below.
bool ReplaySnapshot(const std::string& bytes, TenantSession& session,
                    const sim::MeasurementFrame& frame) {
  std::stringstream in(bytes);
  auto snapshot = TenantSnapshot::ReadFrom(in);
  if (!snapshot.ok()) {
    EXPECT_FALSE(snapshot.status().message().empty());
    return false;
  }
  Status restored = session.Restore(*snapshot);
  if (!restored.ok()) {
    EXPECT_FALSE(restored.message().empty());
    return false;
  }
  static_cast<void>(session.ProcessFrame(frame).ok());
  return true;
}

// Two snapshots of a multi-line session: with two votes in its window
// (after `frames`, two outage frames), and fresh.
std::vector<std::string> SnapshotCorpus(
    std::shared_ptr<OutageDetector> detector,
    const std::vector<sim::MeasurementFrame>& frames) {
  TenantSession session(std::move(detector), {});
  auto save = [&session] {
    std::stringstream buffer;
    PW_CHECK(session.Snapshot().WriteTo(buffer).ok());
    return buffer.str();
  };
  const std::string fresh = save();
  for (const auto& frame : frames) PW_CHECK(session.ProcessFrame(frame).ok());
  return {save(), fresh};
}

TEST_F(FleetTest, SnapshotTruncationAtAnyPrefixReturnsStatus) {
  const std::string bytes =
      SnapshotCorpus(shared_->multi_detector, MakeFrames(2, 0)).front();
  std::stringstream in(bytes);
  auto full = TenantSnapshot::ReadFrom(in);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->recent_votes.size(), 2u);
  ASSERT_FALSE(full->recent_votes[0].empty());
  EXPECT_EQ(full->recent_confidences[0].size(),
            full->recent_votes[0].size());

  // A proper prefix is a truncated snapshot: it must never read.
  TenantSession session(shared_->multi_detector, {});
  const auto frame = MakeFrames(1, 0).front();
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(ReplaySnapshot(bytes.substr(0, len), session, frame))
        << "prefix " << len;
  }
  EXPECT_TRUE(ReplaySnapshot(bytes, session, frame));
}

TEST_F(FleetTest, SnapshotMutationsNeverCrash) {
  // Seeded bit flips, deleted runs and splices of both snapshots.
  const std::vector<std::string> corpus =
      SnapshotCorpus(shared_->multi_detector, MakeFrames(2, 0));
  TenantSession session(shared_->multi_detector, {});
  const auto frame = MakeFrames(1, 0).front();
  constexpr uint64_t kSeed = 0x70777366ULL;
  constexpr uint64_t kMutations = 2000;
  size_t restored = 0;
  for (uint64_t stream = 0; stream < kMutations; ++stream) {
    SCOPED_TRACE("mutation stream " + std::to_string(stream));
    restored += ReplaySnapshot(MutateCorpus(corpus, kSeed, stream), session,
                               frame)
                    ? 1
                    : 0;
  }
  // Flips in counters and timestamps restore; the replay must have
  // driven restored sessions, not only the parser.
  EXPECT_GT(restored, 0u);
}

TEST_F(FleetTest, RestoreRejectsVotesOutsideGrid) {
  TenantSession session(shared_->detector, {});
  TenantSnapshot snapshot;
  snapshot.recent_votes.push_back({grid::LineId{0, 99}});
  snapshot.recent_confidences.push_back({1.0});
  Status status = session.Restore(snapshot);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();

  // A full window of in-grid votes restores; one vote more is a window
  // no live session holds.
  TenantSnapshot window;
  for (size_t v = 0; v < kVoteWindow; ++v) {
    window.recent_votes.push_back({grid::LineId{0, 1}});
    window.recent_confidences.push_back({1.0});
  }
  EXPECT_TRUE(session.Restore(window).ok());
  window.recent_votes.push_back({grid::LineId{0, 1}});
  window.recent_confidences.push_back({1.0});
  status = session.Restore(window);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST_F(FleetTest, HotReloadSwapsModelAndKeepsDebounceState) {
  FleetOptions fopts;
  fopts.num_shards = 1;
  FleetEngine engine(fopts);
  auto tenant = engine.AddTenant(Config("grid-a"));
  ASSERT_TRUE(tenant.ok());
  engine.Start();

  auto frames = MakeFrames(4, 0);
  for (const auto& frame : frames) {
    ASSERT_TRUE(engine.Submit(*tenant, frame).ok());
  }
  engine.Flush();
  ASSERT_TRUE(engine.session(*tenant).alarm_active());

  // Clone the model through the PWDET07 round trip and hot-swap it.
  std::stringstream buffer;
  ASSERT_TRUE(shared_->detector->Save(buffer).ok());
  auto clone = OutageDetector::Load(buffer, shared_->grid, shared_->network);
  ASSERT_TRUE(clone.ok());
  auto clone_ptr = std::make_shared<OutageDetector>(std::move(clone).value());
  const OutageDetector* before = engine.session(*tenant).model().get();
  ASSERT_TRUE(engine.ReloadModel(*tenant, clone_ptr).ok());
  EXPECT_EQ(engine.session(*tenant).model().get(), clone_ptr.get());
  EXPECT_NE(engine.session(*tenant).model().get(), before);
  // Debounce state carried across the reload: the alarm must not flap.
  EXPECT_TRUE(engine.session(*tenant).alarm_active());

  // The stream keeps flowing on the new model.
  auto tail = MakeFrames(0, 3);
  for (auto& frame : tail) {
    frame.timestamp_us += 1000000;  // past the first segment's timetags
    ASSERT_TRUE(engine.Submit(*tenant, frame).ok());
  }
  engine.Flush();
  engine.Stop();
  EXPECT_EQ(engine.session(*tenant).samples_processed(),
            frames.size() + tail.size());
}

TEST_F(FleetTest, ReloadModelFromFileChecksConfigAndPath) {
  FleetEngine engine;
  auto blind = engine.AddTenant(Config("no-deploy-config"));
  ASSERT_TRUE(blind.ok());
  EXPECT_EQ(engine.ReloadModelFromFile(*blind, "unused").code(),
            StatusCode::kFailedPrecondition);

  TenantConfig config = Config("deployable");
  config.grid = &shared_->grid;
  config.network = &shared_->network;
  auto tenant = engine.AddTenant(std::move(config));
  ASSERT_TRUE(tenant.ok());
  EXPECT_FALSE(
      engine.ReloadModelFromFile(*tenant, "/nonexistent/model.bin").ok());

  const std::string path = ::testing::TempDir() + "/pw_fleet_model.bin";
  ASSERT_TRUE(shared_->detector->SaveToFile(path).ok());
  const OutageDetector* before = engine.session(*tenant).model().get();
  ASSERT_TRUE(engine.ReloadModelFromFile(*tenant, path).ok());
  EXPECT_NE(engine.session(*tenant).model().get(), before);
}

TEST_F(FleetTest, StopDrainsAndEngineRestarts) {
  FleetOptions fopts;
  fopts.num_shards = 2;
  FleetEngine engine(fopts);
  auto tenant = engine.AddTenant(Config("grid-a"));
  ASSERT_TRUE(tenant.ok());

  auto frames = MakeFrames(0, 4);
  engine.Start();
  EXPECT_TRUE(engine.running());
  for (size_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(engine.Submit(*tenant, frames[k]).ok());
  }
  engine.Stop();  // must drain the two accepted frames, not drop them
  EXPECT_FALSE(engine.running());
  EXPECT_EQ(engine.frames_processed(), 2u);

  engine.Start();
  for (size_t k = 2; k < 4; ++k) {
    ASSERT_TRUE(engine.Submit(*tenant, frames[k]).ok());
  }
  engine.Flush();
  engine.Stop();
  engine.Stop();  // idempotent
  EXPECT_EQ(engine.frames_processed(), 4u);
  EXPECT_EQ(engine.session(*tenant).samples_processed(), 4u);
}

// Long enough for every drain loop to finish its spin phase and park.
// Each test below then has exactly one waker that must reach the shard;
// a lost wake-up hangs it until the ctest TIMEOUT fails it.
void IdleUntilShardsPark() {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST_F(FleetTest, StopWakesParkedShardsAndEngineRestarts) {
  FleetOptions fopts;
  fopts.num_shards = 3;
  FleetEngine engine(fopts);
  auto tenant = engine.AddTenant(Config("grid-a"));
  ASSERT_TRUE(tenant.ok());
  engine.Start();
  IdleUntilShardsPark();
  engine.Stop();  // joins three parked drain loops
  EXPECT_FALSE(engine.running());

  engine.Start();
  IdleUntilShardsPark();
  ASSERT_TRUE(engine.Submit(*tenant, MakeFrames(0, 1)[0]).ok());
  engine.Stop();
  EXPECT_EQ(engine.frames_processed(), 1u);
}

TEST_F(FleetTest, ControlHooksReachParkedShards) {
  FleetOptions fopts;
  fopts.num_shards = 2;
  FleetEngine engine(fopts);
  auto tenant_a = engine.AddTenant(Config("grid-a"));
  auto tenant_b = engine.AddTenant(Config("grid-b"));
  ASSERT_TRUE(tenant_a.ok());
  ASSERT_TRUE(tenant_b.ok());
  engine.Start();
  for (const auto& frame : MakeFrames(3, 0)) {
    ASSERT_TRUE(engine.Submit(*tenant_a, frame).ok());
  }
  engine.Flush();

  IdleUntilShardsPark();
  auto snapshot = engine.SnapshotTenant(*tenant_a);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->next_sample_index, 3u);

  IdleUntilShardsPark();
  ASSERT_TRUE(engine.RestoreTenant(*tenant_b, *snapshot).ok());
  IdleUntilShardsPark();
  ExpectSameSnapshot(engine.SnapshotTenant(*tenant_b).value(), *snapshot);
  engine.Stop();
}

TEST_F(FleetTest, SubmitWakesParkedShard) {
  FleetOptions fopts;
  fopts.num_shards = 1;
  FleetEngine engine(fopts);
  auto tenant = engine.AddTenant(Config("grid-a"));
  ASSERT_TRUE(tenant.ok());
  engine.Start();
  IdleUntilShardsPark();
  ASSERT_TRUE(engine.Submit(*tenant, MakeFrames(1, 0)[0]).ok());
  // No Flush and no further Submit: the one wake-up must be enough. A
  // deadline turns a lost wake-up into a failure rather than a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.session(*tenant).samples_processed() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(engine.session(*tenant).samples_processed(), 1u);
  engine.Stop();
  const TenantCounters& counters = engine.session(*tenant).counters();
  EXPECT_EQ(counters.samples.load(std::memory_order_relaxed), 1u);
}

}  // namespace
}  // namespace phasorwatch::detect
