// pwbench: open-loop PMU-fleet benchmark with a per-layer breakdown
// (pwbench/BENCHMARK.md).
//
// One process runs one workload. It stands the deployment up several
// times (dataset, training, tenants, shard start) to time set-up, then a
// single-threaded generator, on a CPU of its own, streams every tenant's
// PMU frames into a 3-shard FleetEngine through a warm-up and a measured
// window. The load is open loop: each tenant emits one frame per 1/30 s
// on a fixed schedule, interleaved evenly across tenants, whether or not
// the fleet keeps up. After the window every 16th tenant's accepted
// frames are regenerated and replayed serially through a fresh
// TenantSession on the same detector, and its state is compared with the
// fleet's (the correctness gate); the same frames are then timed through
// TenantSession::ProcessFrame and OutageDetector::Detect.
//
//   pwbench --workload NAME [--seed N] [--seconds S] [--traced]
//   pwbench --smoke        every workload, reduced sizing, 1 s windows
//
// --traced splits the window in two halves, untraced then traced (timers
// around Submit, FaultInjector::Apply and the mask draw), so the cost of
// tracing is measured in the same run.
//
// Prints one "name value unit" line per metric, then the run record as
// one JSON line. Exits 1 when the correctness gate fails, 2 on a usage
// or set-up error.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/alloc_counter.h"
#include "common/rng.h"
#include "common/status.h"
#include "detect/detector.h"
#include "detect/fleet.h"
#include "detect/session.h"
#include "eval/dataset.h"
#include "grid/ieee_cases.h"
#include "obs/metrics.h"
#include "obs/quantile.h"
#include "sim/fault_injection.h"
#include "sim/missing_data.h"
#include "sim/pmu_network.h"

namespace phasorwatch::pwbench {
namespace {

using Clock = std::chrono::steady_clock;
using Snapshot = obs::QuantileHistogram::Snapshot;

constexpr size_t kFramesPerSecond = 30;  // C37.118-style PMU reporting rate
constexpr uint64_t kFramePeriodUs = 33333;
// Generator plus shards fill the 4 CPUs of the reference host.
constexpr size_t kShards = 3;
// Per-shard ring slots: 2.7 s of frames at the busiest workload's
// per-shard rate, so a stall of the shared host delays frames but does
// not shed them.
constexpr size_t kQueueCapacity = 16384;
// Set-up is repeated at least kMinSetups times and until kSetupBudgetS
// seconds were spent on it (at most kMaxSetups); setup_s is the median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.0;
// The training corpus stands for the grid's recorded history, part of
// the deployment rather than of the traffic, so it is fixed; --seed
// draws the live streams.
constexpr uint64_t kCorpusSeed = 55;
constexpr size_t kReplayStride = 16;
// Each tenant replays its outage case for the last kOutageTicks ticks
// of every kCycleTicks-tick cycle (a third of its frames), from a
// per-tenant phase, so outages are spread over time across the fleet.
constexpr size_t kCycleTicks = 30;
constexpr size_t kOutageTicks = 10;
// The fault schedule covers one second of frames and repeats.
constexpr size_t kScheduleTicks = 30;
// The window is cut into one-second slices. A slice spans one outage
// cycle and one fault schedule of every tenant, so all slices carry the
// same mix of normal, outage and faulty frames.
constexpr size_t kSliceTicks = kCycleTicks;
static_assert(kSliceTicks % kScheduleTicks == 0);

struct Workload {
  const char* name;
  int buses;
  size_t tenants;
  bool paper_scale;  // DatasetOptions{} instead of the fleet sizing
  size_t max_outage_lines;
  double r_pmu;  // > 0: per-frame PMU masks from MissingFromReliability
};

constexpr Workload kWorkloads[] = {
    {"fleet14_light", 14, 100, false, 1, 0.0},
    {"fleet14_steady", 14, 600, false, 1, 0.0},
    {"grid30_unreliable", 30, 60, true, 2, 0.97},
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  double warmup_seconds = 2.0;
  size_t min_setups = kMinSetups;
  double setup_budget_s = kSetupBudgetS;
  bool traced = false;
  bool smoke = false;
};

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "pwbench: %s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

void Must(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "pwbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(2);
  }
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

uint64_t CounterValue(const char* name) {
  const obs::Counter* counter =
      obs::MetricsRegistry::Global().FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

/// The part of a cumulative histogram recorded between two snapshots.
/// Min and max are the edges of the outermost non-empty buckets,
/// clamped to the cumulative extrema.
Snapshot Delta(const Snapshot& end, const Snapshot& begin) {
  Snapshot d = end;
  if (begin.counts.size() == end.counts.size()) {
    for (size_t b = 0; b < d.counts.size(); ++b) d.counts[b] -= begin.counts[b];
    d.sum -= begin.sum;
  }
  d.count = 0;
  for (uint64_t c : d.counts) d.count += c;
  if (d.count == 0) {
    d.min = d.max = 0.0;
    return d;
  }
  size_t lo = 0;
  while (d.counts[lo] == 0) ++lo;
  size_t hi = d.counts.size() - 1;
  while (d.counts[hi] == 0) --hi;
  d.min = std::max(end.min, end.BucketLowerBound(lo));
  d.max = std::min(end.max, end.BucketUpperBound(hi));
  return d;
}

// Registry series read at every mark: the in-fleet ProcessFrame time and
// the detector's total and per-stage times.
constexpr const char* kFrameSeries = "stream.frame_us";
constexpr const char* kTotalSeries = "detect.total_us";
constexpr const char* kStageSeries[] = {
    "screen", "groups", "gate", "proximity", "localization", "peel"};

std::vector<std::string> SeriesNames() {
  std::vector<std::string> names = {kFrameSeries, kTotalSeries};
  for (const char* stage : kStageSeries) {
    names.push_back(std::string("detect.stage.") + stage + "_us");
  }
  return names;
}

/// Fleet and registry state at one instant of the stream.
struct Mark {
  Clock::time_point wall;
  double process_cpu_s = 0.0;
  double generator_cpu_s = 0.0;
  uint64_t processed = 0;
  uint64_t backlog = 0;
  Snapshot latency;
  std::map<std::string, Snapshot> series;
  std::map<std::string, uint64_t> counters;
};

Mark TakeMark(const detect::FleetEngine& engine) {
  Mark mark;
  mark.wall = Clock::now();
  mark.process_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  mark.generator_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  mark.processed = engine.frames_processed();
  mark.backlog =
      engine.frames_submitted() - engine.frames_shed() - mark.processed;
  mark.latency = engine.LatencySnapshot();
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const std::string& name : SeriesNames()) {
    const obs::QuantileHistogram* series = registry.FindQuantile(name);
    if (series != nullptr) mark.series[name] = series->TakeSnapshot();
  }
  mark.counters = registry.CounterValues();
  return mark;
}

Snapshot SeriesDelta(const Mark& end, const Mark& begin,
                     const std::string& name) {
  auto e = end.series.find(name);
  if (e == end.series.end()) return Snapshot{};
  auto b = begin.series.find(name);
  return Delta(e->second, b == begin.series.end() ? Snapshot{} : b->second);
}

uint64_t CounterDelta(const Mark& end, const Mark& begin,
                      const std::string& name) {
  auto e = end.counters.find(name);
  if (e == end.counters.end()) return 0;
  auto b = begin.counters.find(name);
  return e->second - (b == begin.counters.end() ? 0 : b->second);
}

/// Pins the calling thread to a CPU set until destruction, then restores
/// its previous affinity. Threads it starts meanwhile inherit the set.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const cpu_set_t* cpus) {
    active_ = cpus != nullptr &&
              sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
              sched_setaffinity(0, sizeof(*cpus), cpus) == 0;
  }
  ~ScopedAffinity() {
    if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// Keeps the load generator off the shards' CPUs: the first allowed CPU
/// runs the generator, the others the shard threads. On a host with
/// fewer than kShards + 1 CPUs nothing is pinned (null sets).
struct CpuPlan {
  cpu_set_t generator{};
  cpu_set_t shards{};
  bool pinned = false;

  const cpu_set_t* generator_cpus() const {
    return pinned ? &generator : nullptr;
  }
  const cpu_set_t* shard_cpus() const { return pinned ? &shards : nullptr; }
};

CpuPlan PlanCpus() {
  CpuPlan plan;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < static_cast<int>(kShards + 1)) {
    return plan;
  }
  CPU_ZERO(&plan.generator);
  CPU_ZERO(&plan.shards);
  bool first = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, first ? &plan.generator : &plan.shards);
    first = false;
  }
  plan.pinned = true;
  return plan;
}

/// Everything the set-up builds, torn down in reverse: the engine (which
/// joins its shards) before the detector its sessions share.
struct Deployment {
  eval::Dataset dataset;
  std::shared_ptr<detect::OutageDetector> detector;
  std::unique_ptr<detect::FleetEngine> engine;
};

struct SetupTimes {
  double setup_s = 0.0;
  double dataset_s = 0.0;
  double train_s = 0.0;
  uint64_t ac_solves = 0;
  uint64_t ac_iterations = 0;
};

detect::StreamOptions TenantStream() {
  detect::StreamOptions stream;
  stream.alarm_after = 2;
  stream.clear_after = 2;
  return stream;
}

std::string TenantName(size_t k) { return "grid-" + std::to_string(k); }

eval::DatasetOptions DatasetSizing(const Workload& w, const RunOptions& opts) {
  eval::DatasetOptions sizing;
  if (w.paper_scale && !opts.smoke) return sizing;
  sizing.train_states = 16;
  sizing.train_samples_per_state = 8;
  sizing.test_states = 6;
  sizing.test_samples_per_state = 6;
  return sizing;
}

/// The timed set-up: dataset build, Train, AddTenant for every tenant,
/// Start.
std::unique_ptr<Deployment> StandUp(const Workload& w, const RunOptions& opts,
                                    const grid::Grid& grid,
                                    const sim::PmuNetwork& network,
                                    const CpuPlan& cpus, SetupTimes* times) {
  auto d = std::make_unique<Deployment>();
  const uint64_t solves0 = CounterValue("powerflow.ac.solves");
  const uint64_t iterations0 = CounterValue("powerflow.ac.iterations_total");
  const Clock::time_point t0 = Clock::now();
  d->dataset = Must(eval::BuildDataset(grid, DatasetSizing(w, opts),
                                       kCorpusSeed),
                    "BuildDataset");
  const Clock::time_point t1 = Clock::now();
  detect::TrainingData training;
  training.normal = &d->dataset.normal.train;
  for (const eval::CaseData& c : d->dataset.outages) {
    training.case_lines.push_back(c.line);
    training.outage.push_back(&c.train);
  }
  detect::DetectorOptions detector_options;
  detector_options.max_outage_lines = w.max_outage_lines;
  d->detector = std::make_shared<detect::OutageDetector>(
      Must(detect::OutageDetector::Train(grid, network, training,
                                         detector_options),
           "Train"));
  const Clock::time_point t2 = Clock::now();
  detect::FleetOptions fleet_options;
  fleet_options.num_shards = kShards;
  fleet_options.queue_capacity = kQueueCapacity;
  d->engine = std::make_unique<detect::FleetEngine>(fleet_options);
  for (size_t k = 0; k < w.tenants; ++k) {
    detect::TenantConfig tenant;
    tenant.name = TenantName(k);
    tenant.detector = d->detector;
    tenant.stream = TenantStream();
    Must(d->engine->AddTenant(std::move(tenant)).status(), "AddTenant");
  }
  {
    const ScopedAffinity pin(cpus.shard_cpus());
    d->engine->Start();
  }
  const Clock::time_point t3 = Clock::now();
  times->setup_s = Seconds(t3 - t0);
  times->dataset_s = Seconds(t1 - t0);
  times->train_s = Seconds(t2 - t1);
  times->ac_solves = CounterValue("powerflow.ac.solves") - solves0;
  times->ac_iterations =
      CounterValue("powerflow.ac.iterations_total") - iterations0;
  return d;
}

/// Generator-side timers, live only in the traced half of the window.
struct GeneratorTimers {
  obs::QuantileHistogram submit_us;
  obs::QuantileHistogram inject_us;
  obs::QuantileHistogram mask_us;
};

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// One tenant's frame stream: which outage case it replays, where in the
/// normal/outage cycle it starts, its stateful fault injector, and its
/// PMU-availability draws. Everything derives from Rng::Fork(seed, 1+k).
struct Feed {
  size_t outage_case;
  size_t phase;
  sim::FaultInjector injector;
  Rng mask_rng;
};

class FrameSource {
 public:
  FrameSource(const Workload& w, const eval::Dataset& dataset,
              const sim::PmuNetwork& network, uint64_t seed)
      : dataset_(dataset), network_(network) {
    reliability_.r_pmu = w.r_pmu;
    masked_ = w.r_pmu > 0.0;
    const size_t buses = dataset.grid->num_buses();
    sim::FaultScheduleOptions schedule;
    schedule.gross_errors = 2;
    schedule.frozen_channels = 1;
    schedule.non_finite = 1;
    schedule.dropped_frames = 1;
    schedule.stale_timestamps = 1;
    schedule.window = 3;
    feeds_.reserve(w.tenants);
    for (size_t k = 0; k < w.tenants; ++k) {
      Rng rng = Rng::Fork(seed, 1 + k);
      const size_t outage_case =
          static_cast<size_t>(rng.UniformInt(dataset.outages.size()));
      const size_t phase = static_cast<size_t>(rng.UniformInt(kCycleTicks));
      sim::FaultSchedule plan = Must(
          sim::MakeRandomFaultSchedule(schedule, buses, kScheduleTicks,
                                       rng.NextU64()),
          "MakeRandomFaultSchedule");
      sim::FaultInjector injector =
          Must(sim::FaultInjector::Create(std::move(plan), buses,
                                          kScheduleTicks, rng.NextU64()),
               "FaultInjector::Create");
      feeds_.push_back(Feed{outage_case, phase, std::move(injector),
                            rng.Fork()});
    }
  }

  /// Tenant k's frame for `tick`, as its PMUs deliver it. Each tenant's
  /// ticks must come in order: fault injection and mask draws carry
  /// state from frame to frame.
  sim::MeasurementFrame Make(size_t k, uint64_t tick, GeneratorTimers* timers) {
    Feed& feed = feeds_[k];
    const uint64_t position = tick + feed.phase;
    const sim::PhasorDataSet& source =
        position % kCycleTicks >= kCycleTicks - kOutageTicks
            ? dataset_.outages[feed.outage_case].test
            : dataset_.normal.test;
    sim::MeasurementFrame frame = sim::MeasurementFrame::FromDataSet(
        source, position % source.num_samples(), (tick + 1) * kFramePeriodUs);
    if (masked_) {
      const Clock::time_point start = Clock::now();
      frame.mask =
          sim::MissingFromReliability(network_, reliability_, feed.mask_rng);
      if (timers != nullptr) timers->mask_us.Record(MicrosSince(start));
    }
    const Clock::time_point start = Clock::now();
    Must(feed.injector.Apply(tick % kScheduleTicks, &frame),
         "FaultInjector::Apply");
    if (timers != nullptr) timers->inject_us.Record(MicrosSince(start));
    return frame;
  }

 private:
  const eval::Dataset& dataset_;
  const sim::PmuNetwork& network_;
  sim::PmuReliability reliability_;
  bool masked_ = false;
  std::vector<Feed> feeds_;
};

/// What the generator saw and kept while streaming.
struct StreamLog {
  uint64_t offered = 0;  // frames that were accepted or shed
  uint64_t shed = 0;     // frames the fleet refused (never retried)
  obs::QuantileHistogram lag_us;  // window frames only
  GeneratorTimers timers;
  // Per sampled tenant (every kReplayStride-th), one flag per frame it
  // generated, in tick order: 1 when the fleet accepted it. FrameSource
  // is deterministic, so the replays regenerate the frames from these
  // instead of the run holding copies.
  std::vector<std::vector<uint8_t>> accepted;
  Mark start;                // before the first frame
  std::vector<Mark> slices;  // window slices: front() opens, back() closes
  Mark mid;                  // traced runs: where the traced half starts
  Mark flushed;              // after the closing Flush
};

/// Streams the workload into the running engine: warm-up, then the
/// measured window (split at `mid` when traced), then Flush. With `spin`
/// (the generator has a CPU of its own) it waits for each frame's due
/// time without sleeping: on a virtual machine a sleeping CPU wakes late
/// when the host is busy, and the frames it owes then reach the shards
/// in a burst.
void Stream(const Workload& w, const RunOptions& opts, FrameSource& source,
            detect::FleetEngine& engine, bool spin, StreamLog* log) {
  const uint64_t n = w.tenants;
  log->accepted.assign((n + kReplayStride - 1) / kReplayStride, {});
  enum class Phase { kWarmup, kWindow, kTraced };
  Phase phase = Phase::kWarmup;
  auto timers = [&] {
    return phase == Phase::kTraced ? &log->timers : nullptr;
  };
  // Offers tenant k's frame once and records an accepted frame's lag
  // from its due time.
  auto submit = [&](size_t k, sim::MeasurementFrame& frame,
                    Clock::time_point due) {
    const Clock::time_point submitted = Clock::now();
    Status status = engine.Submit(k, frame);
    if (!status.ok()) {
      if (status.code() != StatusCode::kResourceExhausted) {
        Must(status, "Submit");
      }
      return false;
    }
    if (GeneratorTimers* t = timers()) {
      t->submit_us.Record(MicrosSince(submitted));
    }
    if (phase != Phase::kWarmup) {
      log->lag_us.Record(
          std::chrono::duration<double, std::micro>(submitted - due).count());
    }
    if (k % kReplayStride == 0) log->accepted[k / kReplayStride].push_back(1);
    ++log->offered;
    return true;
  };

  log->start = TakeMark(engine);
  const uint64_t warm_ticks = static_cast<uint64_t>(
      std::llround(opts.warmup_seconds * kFramesPerSecond));
  const uint64_t window_ticks = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(opts.seconds * kFramesPerSecond)));
  const uint64_t warm_frames = warm_ticks * n;
  const uint64_t mid_frames = (warm_ticks + window_ticks / 2) * n;
  const uint64_t total_frames = (warm_ticks + window_ticks) * n;
  const double period_ns = 1e9 / static_cast<double>(kFramesPerSecond * n);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  for (uint64_t i = 0; i < total_frames; ++i) {
    // Marks are taken before waiting for the frame's due time, so their
    // cost comes out of the generator's idle time.
    if (i >= warm_frames && (i - warm_frames) % (kSliceTicks * n) == 0) {
      log->slices.push_back(TakeMark(engine));
      if (phase == Phase::kWarmup) phase = Phase::kWindow;
    }
    if (opts.traced && i == mid_frames) {
      log->mid = TakeMark(engine);
      phase = Phase::kTraced;
    }
    const Clock::time_point due =
        t0 + std::chrono::nanoseconds(
                 std::llround(static_cast<double>(i) * period_ns));
    for (Clock::time_point now = Clock::now(); now < due; now = Clock::now()) {
      if (!spin && due - now > std::chrono::microseconds(300)) {
        std::this_thread::sleep_for(due - now - std::chrono::microseconds(200));
      }
    }
    const size_t k = static_cast<size_t>(i % n);
    sim::MeasurementFrame frame = source.Make(k, i / n, timers());
    if (!submit(k, frame, due)) {
      ++log->offered;
      ++log->shed;
      if (k % kReplayStride == 0) log->accepted[k / kReplayStride].push_back(0);
    }
  }
  log->slices.push_back(TakeMark(engine));
  engine.Flush();
  log->flushed = TakeMark(engine);
}

/// First field on which two tenant states differ, or "" when equal.
std::string SnapshotDiff(const detect::TenantSnapshot& a,
                         const detect::TenantSnapshot& b) {
  if (a.next_sample_index != b.next_sample_index) return "next_sample_index";
  if (a.alarm_active != b.alarm_active) return "alarm_active";
  if (a.consecutive_positive != b.consecutive_positive) {
    return "consecutive_positive";
  }
  if (a.consecutive_negative != b.consecutive_negative) {
    return "consecutive_negative";
  }
  if (a.recent_votes != b.recent_votes) return "recent_votes";
  if (a.recent_confidences != b.recent_confidences) {
    return "recent_confidences";
  }
  if (a.last_timestamp_us != b.last_timestamp_us) return "last_timestamp_us";
  if (a.has_timestamp != b.has_timestamp) return "has_timestamp";
  if (a.samples != b.samples) return "samples";
  if (a.samples_rejected != b.samples_rejected) return "samples_rejected";
  if (a.frames_dropped != b.frames_dropped) return "frames_dropped";
  if (a.frames_stale != b.frames_stale) return "frames_stale";
  if (a.alarms_raised != b.alarms_raised) return "alarms_raised";
  if (a.alarms_cleared != b.alarms_cleared) return "alarms_cleared";
  return "";
}

std::string RowDiff(const detect::TenantStatus& row,
                    const detect::TenantSession& session) {
  const detect::TenantCounters& c = session.counters();
  if (row.samples != c.samples.load()) return "row.samples";
  if (row.samples_rejected != c.samples_rejected.load()) {
    return "row.samples_rejected";
  }
  if (row.frames_dropped != c.frames_dropped.load()) {
    return "row.frames_dropped";
  }
  if (row.frames_stale != c.frames_stale.load()) return "row.frames_stale";
  if (row.alarms_raised != c.alarms_raised.load()) return "row.alarms_raised";
  if (row.alarms_cleared != c.alarms_cleared.load()) {
    return "row.alarms_cleared";
  }
  if (row.alarm_active != session.alarm_active()) return "row.alarm_active";
  return "";
}

/// Serial replays of the sampled tenants' accepted frames.
struct Replay {
  std::string mismatch;  // "" when every sampled tenant matched the fleet
  obs::QuantileHistogram frame_us;
  obs::QuantileHistogram detect_us;
  uint64_t frames = 0;
  uint64_t frame_allocs = 0;
  uint64_t detects = 0;
  uint64_t detect_allocs = 0;
  uint64_t flagged = 0;
};

/// Replays each sampled tenant: its accepted frames, regenerated from a
/// fresh FrameSource, go through a fresh TenantSession whose state must
/// match the fleet's; then those the transport did not drop go through
/// Detect alone.
void RunReplays(FrameSource& source, Deployment& d,
                const std::vector<detect::TenantStatus>& rows,
                const StreamLog& log, Replay* replay) {
  std::vector<sim::MeasurementFrame> frames;
  for (size_t j = 0; j < log.accepted.size(); ++j) {
    const size_t k = j * kReplayStride;
    frames.clear();
    for (uint64_t tick = 0; tick < log.accepted[j].size(); ++tick) {
      sim::MeasurementFrame frame = source.Make(k, tick, nullptr);
      if (log.accepted[j][tick] != 0) frames.push_back(std::move(frame));
    }
    detect::TenantSession session(d.detector, TenantStream(), TenantName(k));
    for (const sim::MeasurementFrame& frame : frames) {
      const uint64_t allocs = bench::AllocCount();
      const Clock::time_point start = Clock::now();
      Result<detect::StreamEvent> event = session.ProcessFrame(frame);
      replay->frame_us.Record(MicrosSince(start));
      replay->frame_allocs += bench::AllocCount() - allocs;
      ++replay->frames;
      if (!event.ok()) {
        replay->mismatch = TenantName(k) + ": ProcessFrame failed: " +
                           event.status().ToString();
        return;
      }
    }
    std::string diff = RowDiff(rows[k], session);
    if (diff.empty()) {
      diff = SnapshotDiff(Must(d.engine->SnapshotTenant(k), "SnapshotTenant"),
                          session.Snapshot());
    }
    if (!diff.empty()) {
      replay->mismatch = TenantName(k) + " differs in " + diff;
      return;
    }
    for (const sim::MeasurementFrame& frame : frames) {
      if (frame.dropped) continue;
      const uint64_t allocs = bench::AllocCount();
      const Clock::time_point start = Clock::now();
      Result<detect::DetectionResult> result =
          d.detector->Detect(frame.vm, frame.va, frame.mask);
      replay->detect_us.Record(MicrosSince(start));
      replay->detect_allocs += bench::AllocCount() - allocs;
      ++replay->detects;
      if (result.ok() && result->outage_detected) ++replay->flagged;
    }
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct RunRecord {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// PWDET04 round trip through memory; median of three.
void ModelRoundTrip(const Deployment& d, const grid::Grid& grid,
                    const sim::PmuNetwork& network, double* save_ms,
                    double* load_ms) {
  std::vector<double> saves, loads;
  for (int r = 0; r < 3; ++r) {
    std::stringstream buffer;
    const Clock::time_point t0 = Clock::now();
    Must(d.detector->Save(buffer), "Save");
    const Clock::time_point t1 = Clock::now();
    Must(detect::OutageDetector::Load(buffer, grid, network).status(), "Load");
    const Clock::time_point t2 = Clock::now();
    saves.push_back(1e3 * Seconds(t1 - t0));
    loads.push_back(1e3 * Seconds(t2 - t1));
  }
  *save_ms = Median(saves);
  *load_ms = Median(loads);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

RunRecord RunWorkload(const Workload& w, const RunOptions& opts) {
  const grid::Grid grid = Must(
      w.buses == 14 ? grid::IeeeCase14() : grid::IeeeCase30(), "grid case");
  const sim::PmuNetwork network = Must(
      sim::PmuNetwork::Build(grid, w.buses == 14
                                       ? 3
                                       : sim::PmuNetwork::DefaultClusterCount(
                                             grid.num_buses())),
      "PmuNetwork::Build");

  const CpuPlan cpus = PlanCpus();
  std::unique_ptr<Deployment> deployment;
  std::vector<double> setup_s, dataset_s, train_s;
  SetupTimes times;
  double spent_s = 0.0;
  for (size_t r = 0; r < opts.min_setups ||
                     (spent_s < opts.setup_budget_s && r < kMaxSetups);
       ++r) {
    deployment.reset();
    deployment = StandUp(w, opts, grid, network, cpus, &times);
    setup_s.push_back(times.setup_s);
    spent_s += times.setup_s;
    dataset_s.push_back(times.dataset_s);
    train_s.push_back(times.train_s);
  }
  Deployment& d = *deployment;

  FrameSource source(w, d.dataset, network, opts.seed);
  StreamLog log;
  {
    const ScopedAffinity pin(cpus.generator_cpus());
    Stream(w, opts, source, *d.engine, cpus.pinned, &log);
  }

  // Registry and fleet state are read before the replays, which tick
  // the same registry series.
  const std::vector<detect::TenantStatus> rows = d.engine->TenantRows();
  const Mark& start = log.start;
  const Mark& warm = log.slices.front();
  const Mark& end = log.slices.back();
  const Mark& flushed = log.flushed;
  // Each end-to-end latency quantile is its lowest value over the
  // window's one-second slices, and throughput is the median of the
  // slices' rates. Other tenants of a shared host only add latency, in
  // bursts that can fill most of a run, so the quietest slice measures
  // the program; a change to the program moves every slice, that one
  // included. The whole-window quantiles are per-layer metrics. The last
  // slice's latency includes the frames the closing Flush drained.
  std::vector<double> slice_p50, slice_p90, slice_fps;
  for (size_t i = 0; i + 1 < log.slices.size(); ++i) {
    const Mark& open = log.slices[i];
    const Mark& close = log.slices[i + 1];
    const Snapshot s =
        Delta(i + 2 == log.slices.size() ? flushed.latency : close.latency,
              open.latency);
    if (s.count == 0) continue;
    slice_p50.push_back(s.p50());
    slice_p90.push_back(s.p90());
    slice_fps.push_back(Ratio(close.processed - open.processed,
                              Seconds(close.wall - open.wall)));
  }
  const Snapshot latency = Delta(flushed.latency, warm.latency);
  const Snapshot frame_series = SeriesDelta(flushed, warm, kFrameSeries);
  const Snapshot total_series = SeriesDelta(flushed, warm, kTotalSeries);
  const double window_frames = end.processed - warm.processed;
  // Work counts over the whole stream: they depend only on the seed.
  auto stream_count = [&](const char* name) {
    return CounterDelta(flushed, start, name);
  };
  const uint64_t failed_frames = stream_count("fleet.frames_failed");
  const uint64_t detect_calls = stream_count("detect.calls");
  const uint64_t evaluations = stream_count("proximity.evaluations");
  const uint64_t cache_hits = stream_count("proximity.cache_hits");
  const uint64_t builds = stream_count("proximity.regressor_builds");
  uint64_t samples = 0, rejected = 0, alarms = 0;
  for (const detect::TenantStatus& row : rows) {
    samples += row.samples;
    rejected += row.samples_rejected;
    alarms += row.alarms_raised;
  }

  Replay replay;
  FrameSource replay_source(w, d.dataset, network, opts.seed);
  RunReplays(replay_source, d, rows, log, &replay);
  if (replay.mismatch.empty() && failed_frames > 0) {
    replay.mismatch = std::to_string(failed_frames) + " frames failed";
  }
  double save_ms = 0.0, load_ms = 0.0;
  ModelRoundTrip(d, grid, network, &save_ms, &load_ms);
  const size_t cache_size = d.detector->proximity_cache_size();
  d.engine->Stop();

  RunRecord run;
  run.correct = replay.mismatch.empty();
  if (!run.correct) {
    std::fprintf(stderr, "pwbench: %s: correctness gate FAILED: %s\n", w.name,
                 replay.mismatch.c_str());
  }
  run.attempted = log.offered;
  run.failed = log.shed + failed_frames;

  auto add = [&run](std::string name, double value, const char* unit) {
    run.metrics.push_back({std::move(name), value, unit});
  };
  add("setup_s", Median(setup_s), "s");
  add("latency_p50_us", Min(slice_p50), "us");
  add("latency_p90_us", Min(slice_p90), "us");
  add("throughput_fps", Median(slice_fps), "frames/s");
  add("peak_rss_mb", PeakRssMb(), "MB");

  if (opts.traced) {
    add("fleet.submit_us.p50", log.timers.submit_us.TakeSnapshot().p50(), "us");
    add("fleet.submit_us.p99", log.timers.submit_us.TakeSnapshot().p99(), "us");
  }
  add("fleet.wait_us.mean", latency.mean() - frame_series.mean(), "us");
  const double drain_cpu_s = (end.process_cpu_s - warm.process_cpu_s) -
                             (end.generator_cpu_s - warm.generator_cpu_s);
  add("fleet.drain_cpu_us_per_frame", Ratio(1e6 * drain_cpu_s, window_frames),
      "us");
  add("fleet.backlog_frames", end.backlog, "frames");
  add("fleet.shed_frames", stream_count("fleet.frames_shed"), "frames");
  add("fleet.failed_frames", failed_frames, "frames");
  add("fleet.latency_p50_us", latency.p50(), "us");
  add("fleet.latency_p90_us", latency.p90(), "us");
  add("fleet.latency_p99_us", latency.p99(), "us");
  add("fleet.latency_p999_us", latency.p999(), "us");
  add("fleet.latency_max_us", latency.max, "us");
  add("fleet.latency_count", latency.count, "frames");

  const Snapshot frame_us = replay.frame_us.TakeSnapshot();
  add("session.process_frame_us.p50", frame_us.p50(), "us");
  add("session.process_frame_us.p90", frame_us.p90(), "us");
  add("session.process_frame_us.p99", frame_us.p99(), "us");
  add("session.allocs_per_frame", Ratio(replay.frame_allocs, replay.frames),
      "allocs");
  add("session.rejected_share", Ratio(rejected, samples + rejected), "ratio");
  add("session.alarms_raised", alarms, "count");

  const Snapshot detect_us = replay.detect_us.TakeSnapshot();
  add("detector.detect_us.p50", detect_us.p50(), "us");
  add("detector.detect_us.p90", detect_us.p90(), "us");
  add("detector.detect_us.p99", detect_us.p99(), "us");
  add("detector.allocs_per_detect",
      Ratio(replay.detect_allocs, replay.detects), "allocs");
  add("detector.flagged_share", Ratio(replay.flagged, replay.detects), "ratio");
  // Peel runs inside localization, so it is left out of the sum.
  double staged_us = 0.0;
  for (const char* stage : kStageSeries) {
    const Snapshot s =
        SeriesDelta(flushed, warm, std::string("detect.stage.") + stage + "_us");
    add(std::string("detector.stage.") + stage + "_us.mean", s.mean(), "us");
    if (std::strcmp(stage, "peel") != 0) staged_us += s.sum;
  }
  add("detector.stage.unaccounted_share",
      total_series.sum > 0.0 ? 1.0 - staged_us / total_series.sum : 0.0,
      "ratio");
  add("detector.train_s", Median(train_s), "s");
  add("detector.save_ms", save_ms, "ms");
  add("detector.load_ms", load_ms, "ms");

  add("proximity.evaluations_per_detect", Ratio(evaluations, detect_calls),
      "count");
  add("proximity.hit_ratio", Ratio(cache_hits, cache_hits + builds), "ratio");
  add("proximity.regressor_builds", builds, "count");
  add("proximity.cache_size", cache_size, "count");

  add("dataset.build_s", Median(dataset_s), "s");
  add("powerflow.ac.solves", times.ac_solves, "count");
  add("powerflow.ac.iterations_per_solve",
      Ratio(times.ac_iterations, times.ac_solves), "count");

  const Snapshot lag = log.lag_us.TakeSnapshot();
  add("gen.lag_us.p50", lag.p50(), "us");
  add("gen.lag_us.p99", lag.p99(), "us");
  add("gen.lag_us.max", lag.max, "us");
  if (opts.traced) {
    add("sim.inject_us.p50", log.timers.inject_us.TakeSnapshot().p50(), "us");
    add("sim.mask_us.p50", log.timers.mask_us.TakeSnapshot().p50(), "us");
    const double untraced_p50 = Delta(log.mid.latency, warm.latency).p50();
    const double traced_p50 = Delta(flushed.latency, log.mid.latency).p50();
    add("trace.overhead_share",
        untraced_p50 > 0.0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "ratio");
  }
  return run;
}

void PrintRun(const Workload& w, const RunOptions& opts, const RunRecord& run) {
  for (const Metric& metric : run.metrics) {
    std::printf("%-20s %-36s %.6g %s\n", w.name, metric.name.c_str(),
                metric.value, metric.unit);
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
      "\"traced\": %s, \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"metrics\": {",
      w.name, static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.traced ? "true" : "false", run.correct ? "true" : "false",
      static_cast<unsigned long long>(run.attempted),
      static_cast<unsigned long long>(run.failed));
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& metric = run.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0, metric.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

const Workload* FindWorkload(const char* name) {
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, name) == 0) return &w;
  }
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pwbench --workload NAME [--seed N] [--seconds S] "
               "[--traced]\n       pwbench --smoke\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions opts;
  const Workload* workload = nullptr;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      workload = FindWorkload(argv[++i]);
      if (workload == nullptr) return Usage();
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      opts.seconds = std::atof(argv[++i]);
      if (!(opts.seconds > 0.0 && opts.seconds <= 600.0)) return Usage();
    } else if (std::strcmp(argv[i], "--traced") == 0) {
      opts.traced = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else {
      std::fprintf(stderr, "pwbench: unknown argument %s\n", argv[i]);
      return Usage();
    }
  }
  if (opts.smoke) {
    // Reduced sizing with the correctness gate on, every workload in
    // this one process (the registry deltas keep runs apart).
    opts.seconds = 1.0;
    opts.warmup_seconds = 0.5;
    opts.min_setups = 1;
    opts.setup_budget_s = 0.0;
    opts.traced = true;
    bool correct = true;
    for (const Workload& w : kWorkloads) {
      const RunRecord run = RunWorkload(w, opts);
      PrintRun(w, opts, run);
      correct = correct && run.correct;
    }
    return correct ? 0 : 1;
  }
  if (workload == nullptr) return Usage();
  const RunRecord run = RunWorkload(*workload, opts);
  PrintRun(*workload, opts, run);
  return run.correct ? 0 : 1;
}

}  // namespace
}  // namespace phasorwatch::pwbench

int main(int argc, char** argv) {
  return phasorwatch::pwbench::Main(argc, argv);
}
