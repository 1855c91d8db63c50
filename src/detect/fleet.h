#ifndef PHASORWATCH_DETECT_FLEET_H_
#define PHASORWATCH_DETECT_FLEET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "detect/session.h"
#include "obs/quantile.h"
#include "sim/fault_injection.h"

namespace phasorwatch::detect {

/// Index of a tenant within one FleetEngine (dense, assigned by
/// AddTenant in call order).
using TenantId = size_t;

/// Sizing of the fleet engine (docs/FLEET.md).
struct FleetOptions {
  /// Shard drain threads. Each tenant is pinned to one shard
  /// (round-robin at AddTenant), so per-tenant frame order is
  /// preserved without any cross-shard coordination.
  size_t num_shards = 2;
  /// Per-shard SPSC frame ring capacity (rounded up to a power of
  /// two). When a shard's ring is full, Submit rejects — backpressure
  /// is explicit, never a blocked producer.
  size_t queue_capacity = 1024;
};

/// One monitored grid in the fleet.
struct TenantConfig {
  /// Tenant label for event logs and per-tenant metric rows.
  std::string name;
  /// Trained model; tenants on identical grids may share one instance
  /// (Detect is concurrency-safe on a trained detector).
  std::shared_ptr<OutageDetector> detector;
  StreamOptions stream;
  /// Deployment configuration for file-based hot reload
  /// (ReloadModelFromFile verifies the PWDET07 fingerprint against
  /// these). Optional; reload-from-file fails without them. Not owned,
  /// must outlive the engine.
  const grid::Grid* grid = nullptr;
  const sim::PmuNetwork* network = nullptr;
};

/// One per-tenant metrics row (grid_monitor --metrics; any thread).
struct TenantStatus {
  TenantId id = 0;
  std::string name;
  size_t shard = 0;
  uint64_t samples = 0;
  uint64_t samples_rejected = 0;
  uint64_t frames_dropped = 0;
  uint64_t frames_stale = 0;
  uint64_t alarms_raised = 0;
  uint64_t alarms_cleared = 0;
  bool alarm_active = false;
};

/// Sharded multi-tenant streaming engine: N shard drain loops pinned
/// to a dedicated thread pool, each draining a bounded lock-free SPSC
/// frame queue into its tenants' TenantSessions (ROADMAP item 2's
/// "thousands of monitored grids in one process").
///
/// Design (docs/FLEET.md):
///  - Ingest: Submit() stamps the frame, pushes it onto the owning
///    shard's ring, and returns. A full ring rejects with
///    kResourceExhausted and ticks `fleet.frames_shed` — the producer
///    is never blocked; shedding policy belongs to the caller.
///  - Ordering: a tenant lives on exactly one shard, so its frames are
///    processed in submission order by one thread (the TenantSession
///    producer contract holds by construction).
///  - Idle: a shard whose ring stays empty parks on a futex and uses no
///    CPU; Submit, Stop and the snapshot/restore hooks wake it.
///  - Lifecycle: ReloadModel/ReloadModelFromFile hot-swap a tenant's
///    model (locked pointer swap; in-flight frames finish on the old
///    model). SnapshotTenant/RestoreTenant run on the owning shard's
///    drain thread while the engine runs, so they never race the
///    stream.
///  - Observability: aggregate detection latency (submit to event) in
///    the `fleet.frame_us` quantile histogram plus per-shard
///    `fleet.shard<k>.frame_us` quantile histograms; `fleet.frames_submitted`,
///    `fleet.frames_shed`, `fleet.frames_processed`,
///    `fleet.shard_wakeups` counters.
///
/// Threading contract: Submit() is single-producer (one ingest thread,
/// as in a PDC feed) — observers, reloads, snapshots, and TenantRows
/// may come from any thread. AddTenant is setup-time only (before
/// Start). Start/Stop/Flush belong to the controlling thread.
class FleetEngine {
 public:
  explicit FleetEngine(const FleetOptions& options = {});
  /// Stops the shards (draining already-accepted frames) and joins.
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Registers a tenant (round-robin shard pinning). Engine must not
  /// be running. The detector must be non-null and trained.
  PW_NODISCARD Result<TenantId> AddTenant(TenantConfig config);

  /// Launches the shard drain loops on the engine's own thread pool.
  void Start();
  /// Drains every accepted frame, then stops and joins the shard
  /// threads. Idempotent; the engine may be Start()ed again.
  void Stop();
  /// Blocks until every frame accepted so far has been processed.
  /// No-op when the engine is not running.
  void Flush();

  /// Enqueues one frame for `tenant`. Returns kResourceExhausted (and
  /// ticks `fleet.frames_shed`) when the shard's ring is full — never
  /// blocks. Single ingest thread.
  PW_NODISCARD Status Submit(TenantId tenant, sim::MeasurementFrame frame);

  /// Hot-swaps the tenant's model (any thread, engine running or not).
  /// In-flight frames finish on the old model; the next frame runs on
  /// the new one.
  PW_NODISCARD Status ReloadModel(TenantId tenant,
                                  std::shared_ptr<OutageDetector> model);
  /// Loads a PWDET07 file against the tenant's configured grid/network
  /// (fingerprint-checked) and hot-swaps it in. The slow load runs on
  /// the calling thread, off the shard's hot path.
  PW_NODISCARD Status ReloadModelFromFile(TenantId tenant,
                                          const std::string& path);

  /// Consistent snapshot of one tenant's detection state. While the
  /// engine runs, executes on the owning shard's drain thread (between
  /// frames); quiesced engines snapshot inline.
  PW_NODISCARD Result<TenantSnapshot> SnapshotTenant(TenantId tenant);
  /// Restores a tenant's detection state (same execution rules).
  PW_NODISCARD Status RestoreTenant(TenantId tenant,
                                    const TenantSnapshot& snapshot);

  /// Per-tenant metric rows, pollable from any thread while running.
  std::vector<TenantStatus> TenantRows() const;

  /// Aggregate submit-to-event latency across all shards (merged
  /// per-shard snapshots; p99/p999 are the fleet tail numbers).
  obs::QuantileHistogram::Snapshot LatencySnapshot() const;

  /// Direct access for tests and callers needing session observers.
  /// The session's producer methods belong to the owning shard once
  /// the engine is running.
  TenantSession& session(TenantId tenant);

  size_t num_shards() const { return shards_.size(); }
  size_t num_tenants() const { return sessions_.size(); }
  bool running() const { return running_.load(std::memory_order_acquire); }
  uint64_t frames_submitted() const {
    return frames_submitted_.load(std::memory_order_relaxed);
  }
  uint64_t frames_shed() const {
    return frames_shed_.load(std::memory_order_relaxed);
  }
  uint64_t frames_processed() const;

 private:
  struct Shard;

  /// One queued frame: the owning session, the payload, and the
  /// submit-time stamp the latency series is measured from.
  struct FrameTask {
    TenantSession* session = nullptr;
    sim::MeasurementFrame frame;
    double enqueue_us = 0.0;
  };

  void DrainLoop(size_t shard_index);
  /// Executes and clears the shard's pending control hooks (drain
  /// thread only; the cold half of the drain loop).
  void RunControlHooks(Shard& shard);
  /// Runs `fn` on the shard's drain thread (between frames) when the
  /// engine runs, inline otherwise. Blocks until done.
  void RunOnShard(size_t shard_index, const std::function<void()>& fn);
  PW_NODISCARD Status CheckTenant(TenantId tenant) const;

  FleetOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<TenantSession>> sessions_;
  std::vector<TenantConfig> configs_;  // parallel to sessions_
  std::vector<size_t> tenant_shard_;   // parallel to sessions_

  /// Drain threads; sized num_shards + 1 so every shard gets a
  /// dedicated worker (see thread_pool.h: degree P = P-1 workers).
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  std::atomic<uint64_t> frames_submitted_{0};
  std::atomic<uint64_t> frames_shed_{0};
};

}  // namespace phasorwatch::detect

#endif  // PHASORWATCH_DETECT_FLEET_H_
