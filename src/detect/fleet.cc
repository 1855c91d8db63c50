#include "detect/fleet.h"

#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/spsc_queue.h"
#include "common/status.h"
#include "common/sync.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace phasorwatch::detect {
namespace {

// Empty-poll backoff for the drain loops: spin-yield first (a frame is
// usually microseconds away at PMU rates), then park until a waker
// bumps the shard's epoch, so an idle fleet burns no CPU at all —
// essential on small machines where producer and shards share cores.
constexpr size_t kSpinPollsBeforePark = 64;

}  // namespace

/// One shard: the frame ring, its drain-side accounting, a small
/// control-hook inbox (snapshot/restore run between frames), and the
/// shard's latency histogram.
struct FleetEngine::Shard {
  explicit Shard(size_t queue_capacity, size_t index)
      : queue(queue_capacity),
        latency(obs::MetricsRegistry::Global().GetQuantile(
            "fleet.shard" + std::to_string(index) + ".frame_us",
            obs::DefaultLatencyQuantileOptions())) {}

  // pw-lint: allow(sync-discipline) SPSC ring with its own contract.
  SpscQueue<FrameTask> queue;
  /// Frames accepted onto the ring (submit side) / fully processed
  /// (drain side). Flush converges when they match on every shard.
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> processed{0};

  /// Control-hook inbox: RunOnShard pushes, the drain loop executes
  /// between frames. The atomic flag keeps the steady-state drain loop
  /// to one relaxed load; the mutex only guards the cold vector.
  Mutex control_mu{lock_rank::kFleetControl};
  std::vector<std::function<void()>> control_hooks
      PW_GUARDED_BY(control_mu);
  std::atomic<bool> has_control{false};

  /// Park/wake handshake (docs/FLEET.md, "Idle shards park"). The drain
  /// thread publishes `parked`, then re-checks for work; a waker
  /// publishes its work, then checks `parked`. A seq_cst fence sits
  /// between the store and the load on both sides (Dekker), so at least
  /// one side sees the other's store: either the drain finds the work
  /// and never blocks, or the waker finds `parked` and bumps the epoch,
  /// which either fails the drain's futex compare or wakes it. No
  /// wake-up can be lost, and a busy shard costs a waker one fence and
  /// one load.
  std::atomic<bool> parked{false};
  std::atomic<uint32_t> wake_epoch{0};

  /// Drain thread only: blocks until a waker bumps the epoch, unless
  /// the ring, the control inbox, or `stop` already has something.
  PW_NO_ALLOC void Park(const std::atomic<bool>& stop) {
    const uint32_t epoch = wake_epoch.load(std::memory_order_acquire);
    parked.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // Relaxed is enough after the fence; the loop top re-reads all
    // three with acquire. SizeApprox is exact on the consumer thread:
    // only the producer moves, and only from empty to non-empty.
    if (queue.SizeApprox() == 0 &&
        !has_control.load(std::memory_order_relaxed) &&
        !stop.load(std::memory_order_relaxed)) {
      wake_epoch.wait(epoch, std::memory_order_acquire);
    }
    parked.store(false, std::memory_order_relaxed);
  }

  /// Any thread, after publishing its work (a pushed frame, the stop
  /// flag, a control hook). Returns true when it woke a parked shard.
  bool Wake() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // The exchange lets one waker per park pay the futex call; a shard
    // that is running (the common case) costs only the load.
    if (!parked.load(std::memory_order_relaxed) ||
        !parked.exchange(false, std::memory_order_relaxed)) {
      return false;
    }
    wake_epoch.fetch_add(1, std::memory_order_release);
    wake_epoch.notify_one();
    return true;
  }

  /// Registry-owned (never deleted); per-shard submit-to-event latency.
  obs::QuantileHistogram* const latency;
};

FleetEngine::FleetEngine(const FleetOptions& options) : options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  PW_CHECK_GT(options_.queue_capacity, 0u);
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_.queue_capacity, s));
  }
  PW_OBS_GAUGE_SET("fleet.shards", shards_.size());
}

FleetEngine::~FleetEngine() { Stop(); }

Result<TenantId> FleetEngine::AddTenant(TenantConfig config) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "AddTenant while the engine is running (stop it first)");
  }
  if (config.detector == nullptr) {
    return Status::InvalidArgument("tenant \"" + config.name +
                                   "\" has no detector");
  }
  const TenantId id = sessions_.size();
  sessions_.push_back(std::make_unique<TenantSession>(
      config.detector, config.stream, config.name));
  tenant_shard_.push_back(id % shards_.size());
  configs_.push_back(std::move(config));
  PW_OBS_GAUGE_SET("fleet.tenants", sessions_.size());
  return id;
}

void FleetEngine::Start() {
  if (running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  // One dedicated worker per shard (degree P spawns P-1 workers, and
  // the +1 keeps the caller out of the drain loops). The pool is
  // engine-owned and sized explicitly — PW_THREADS must not be able to
  // shrink it to zero workers, which would run a drain loop inline in
  // Start() and never return.
  pool_ = std::make_unique<ThreadPool>(shards_.size() + 1);
  for (size_t s = 0; s < shards_.size(); ++s) {
    pool_->Submit([this, s] { DrainLoop(s); });
  }
#ifndef PW_OBS_DISABLED
  obs::EventLog::Global()
      .Emit("fleet_started")
      .Uint("shards", shards_.size())
      .Uint("tenants", sessions_.size());
#endif
}

void FleetEngine::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Shard>& shard : shards_) shard->Wake();
  // Joining the pool waits for the drain loops, which exit only once
  // their ring and control inbox are empty: Stop drains, it never drops.
  pool_.reset();
  running_.store(false, std::memory_order_release);
#ifndef PW_OBS_DISABLED
  obs::EventLog::Global()
      .Emit("fleet_stopped")
      .Uint("frames_processed", frames_processed())
      .Uint("frames_shed", frames_shed());
#endif
}

void FleetEngine::Flush() {
  if (!running_.load(std::memory_order_acquire)) return;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    while (shard->processed.load(std::memory_order_acquire) <
           shard->accepted.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}

Status FleetEngine::Submit(TenantId tenant, sim::MeasurementFrame frame) {
  PW_RETURN_IF_ERROR(CheckTenant(tenant));
  const size_t shard_index = tenant_shard_[tenant];
  Shard& shard = *shards_[shard_index];
  frames_submitted_.fetch_add(1, std::memory_order_relaxed);
  PW_OBS_COUNTER_INC("fleet.frames_submitted");
  FrameTask task;
  task.session = sessions_[tenant].get();
  task.frame = std::move(frame);
  task.enqueue_us = obs::MonotonicNowUs();
  // pw-producer: Submit is the fleet's single ingest thread (threading
  // matrix in docs/FLEET.md), and tenant->shard pinning makes it the
  // only thread that ever pushes onto this shard's ring.
  if (!shard.queue.TryPush(std::move(task))) {
    frames_shed_.fetch_add(1, std::memory_order_relaxed);
    PW_OBS_COUNTER_INC("fleet.frames_shed");
    return Status::ResourceExhausted(
        "shard " + std::to_string(shard_index) +
        " frame queue is full (backpressure; frame shed)");
  }
  // accepted counts only frames that made it onto the ring, after the
  // push: the drain side must never observe accepted < processed.
  shard.accepted.fetch_add(1, std::memory_order_release);
  if (shard.Wake()) PW_OBS_COUNTER_INC("fleet.shard_wakeups");
  PW_OBS_GAUGE_MAX("fleet.queue_high_water", shard.queue.SizeApprox());
  return Status::OK();
}

void FleetEngine::DrainLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  // Instrument pointers resolved before the steady-state loop; the
  // registry owns them forever, so caching is free and keeps the hot
  // loop allocation-free.
  obs::QuantileHistogram* shard_latency = shard.latency;
  obs::QuantileHistogram* fleet_latency = obs::MetricsRegistry::Global().GetQuantile(
      "fleet.frame_us", obs::DefaultLatencyQuantileOptions());
  obs::Counter* processed_counter =
      obs::MetricsRegistry::Global().GetCounter("fleet.frames_processed");
  obs::Counter* failed_counter =
      obs::MetricsRegistry::Global().GetCounter("fleet.frames_failed");
  size_t idle_polls = 0;
  FrameTask task;
  // The dispatch loop is the fleet's steady-state hot path: one pop,
  // one session call, two histogram records, one counter tick. It must
  // not allocate — per-frame heap traffic at 1000 tenants x 30 Hz
  // would dominate the latency tail (pwbench measures it as
  // session.allocs_per_frame; the lint region keeps it that way).
  // PW_NO_ALLOC_BEGIN(fleet shard drain)
  for (;;) {
    if (shard.has_control.load(std::memory_order_acquire)) {
      RunControlHooks(shard);
    }
    // Shutdown ordering: the stop flag is read *before* the pop. Every
    // frame accepted before Stop() set the flag is pushed before the
    // flag's release store, so once this acquire load observes the
    // flag, the pop below is guaranteed to see those frames — an empty
    // pop then really means the ring is drained. Reading the flag
    // after a failed pop (the old order) left a window where a frame
    // pushed between the two reads was stranded on the ring forever.
    const bool stop_observed =
        stop_requested_.load(std::memory_order_acquire);
    if (shard.queue.TryPop(&task)) {
      idle_polls = 0;
      Result<StreamEvent> event = task.session->ProcessFrame(task.frame);
      const double latency_us = obs::MonotonicNowUs() - task.enqueue_us;
      shard_latency->Record(latency_us);
      fleet_latency->Record(latency_us);
      processed_counter->Increment();
      if (!event.ok()) failed_counter->Increment();
      shard.processed.fetch_add(1, std::memory_order_release);
      continue;
    }
    if (stop_observed &&
        !shard.has_control.load(std::memory_order_acquire)) {
      break;
    }
    // Empty poll: yield first, park once the queue has stayed dry.
    if (++idle_polls < kSpinPollsBeforePark) {
      std::this_thread::yield();
    } else {
      shard.Park(stop_requested_);
      idle_polls = 0;
    }
  }
  // PW_NO_ALLOC_END
}

void FleetEngine::RunControlHooks(Shard& shard) {
  std::vector<std::function<void()>> hooks;
  {
    MutexLock lock(shard.control_mu);
    hooks.swap(shard.control_hooks);
    shard.has_control.store(false, std::memory_order_release);
  }
  for (const std::function<void()>& hook : hooks) hook();
}

void FleetEngine::RunOnShard(size_t shard_index,
                             const std::function<void()>& fn) {
  if (!running_.load(std::memory_order_acquire)) {
    // Quiesced engine: no drain thread owns the sessions, the caller
    // may touch them directly.
    fn();
    return;
  }
  Shard& shard = *shards_[shard_index];
  // Completion latch. Ranked above control_mu: the hook runs on the
  // drain thread after RunControlHooks has released control_mu, and
  // this thread takes it only after its own control_mu scope closed.
  Mutex done_mu{lock_rank::kFleetDone};
  CondVar done_cv;
  bool done = false;
  {
    MutexLock lock(shard.control_mu);
    shard.control_hooks.push_back([&] {
      fn();
      MutexLock done_lock(done_mu);
      done = true;
      done_cv.NotifyAll();
    });
    shard.has_control.store(true, std::memory_order_release);
  }
  shard.Wake();
  MutexLock lock(done_mu);
  while (!done) done_cv.Wait(done_mu);
}

Status FleetEngine::CheckTenant(TenantId tenant) const {
  if (tenant >= sessions_.size()) {
    return Status::NotFound("unknown tenant id " + std::to_string(tenant));
  }
  return Status::OK();
}

Status FleetEngine::ReloadModel(TenantId tenant,
                                std::shared_ptr<OutageDetector> model) {
  PW_RETURN_IF_ERROR(CheckTenant(tenant));
  if (model == nullptr) {
    return Status::InvalidArgument("ReloadModel with a null model");
  }
  // Safe while the shard runs: the swap is locked and in-flight frames
  // keep the shared_ptr they copied.
  sessions_[tenant]->ReloadModel(std::move(model));
  PW_OBS_COUNTER_INC("fleet.model_reloads");
  return Status::OK();
}

Status FleetEngine::ReloadModelFromFile(TenantId tenant,
                                        const std::string& path) {
  PW_RETURN_IF_ERROR(CheckTenant(tenant));
  const TenantConfig& config = configs_[tenant];
  if (config.grid == nullptr || config.network == nullptr) {
    return Status::FailedPrecondition(
        "tenant \"" + config.name +
        "\" has no grid/network configured for file reload");
  }
  // The PWDET07 load (and its fingerprint check against the tenant's
  // configuration) runs here, on the caller's thread — the shard never
  // touches the filesystem.
  PW_ASSIGN_OR_RETURN(OutageDetector loaded, OutageDetector::LoadFromFile(
                                                 path, *config.grid,
                                                 *config.network));
  return ReloadModel(tenant,
                     std::make_shared<OutageDetector>(std::move(loaded)));
}

Result<TenantSnapshot> FleetEngine::SnapshotTenant(TenantId tenant) {
  PW_RETURN_IF_ERROR(CheckTenant(tenant));
  TenantSnapshot snapshot;
  RunOnShard(tenant_shard_[tenant],
             [&] { snapshot = sessions_[tenant]->Snapshot(); });
  return snapshot;
}

Status FleetEngine::RestoreTenant(TenantId tenant,
                                  const TenantSnapshot& snapshot) {
  PW_RETURN_IF_ERROR(CheckTenant(tenant));
  Status status;
  RunOnShard(tenant_shard_[tenant],
             [&] { status = sessions_[tenant]->Restore(snapshot); });
  return status;
}

std::vector<TenantStatus> FleetEngine::TenantRows() const {
  std::vector<TenantStatus> rows;
  rows.reserve(sessions_.size());
  for (TenantId id = 0; id < sessions_.size(); ++id) {
    const TenantSession& session = *sessions_[id];
    const TenantCounters& counters = session.counters();
    TenantStatus row;
    row.id = id;
    row.name = configs_[id].name;
    row.shard = tenant_shard_[id];
    row.samples = counters.samples.load(std::memory_order_relaxed);
    row.samples_rejected =
        counters.samples_rejected.load(std::memory_order_relaxed);
    row.frames_dropped =
        counters.frames_dropped.load(std::memory_order_relaxed);
    row.frames_stale = counters.frames_stale.load(std::memory_order_relaxed);
    row.alarms_raised =
        counters.alarms_raised.load(std::memory_order_relaxed);
    row.alarms_cleared =
        counters.alarms_cleared.load(std::memory_order_relaxed);
    row.alarm_active = session.alarm_active();
    rows.push_back(std::move(row));
  }
  return rows;
}

obs::QuantileHistogram::Snapshot FleetEngine::LatencySnapshot() const {
  obs::QuantileHistogram::Snapshot merged;
  bool first = true;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    obs::QuantileHistogram::Snapshot snapshot =
        shard->latency->TakeSnapshot();
    if (first) {
      merged = std::move(snapshot);
      first = false;
    } else {
      merged.Merge(snapshot);
    }
  }
  return merged;
}

TenantSession& FleetEngine::session(TenantId tenant) {
  PW_CHECK(tenant < sessions_.size());
  return *sessions_[tenant];
}

uint64_t FleetEngine::frames_processed() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->processed.load(std::memory_order_acquire);
  }
  return total;
}

}  // namespace phasorwatch::detect
