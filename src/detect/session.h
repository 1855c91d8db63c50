#ifndef PHASORWATCH_DETECT_SESSION_H_
#define PHASORWATCH_DETECT_SESSION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/sync.h"
#include "detect/detector.h"
#include "sim/fault_injection.h"

namespace phasorwatch::detect {

/// Sliding window of recent positive detections used for the majority
/// vote over candidate lines.
inline constexpr size_t kVoteWindow = 8;

/// Debouncing policy for a tenant session. A PMU feed drops frames,
/// garbles payloads, and repeats stale data, so samples the detector
/// rejects as malformed or data-starved, and dropped or stale frames,
/// always become `sample_rejected` events: the debouncing state is
/// untouched, exactly as if the sample had never arrived, and only
/// programming errors propagate as a Status.
struct StreamOptions {
  /// Consecutive outage-positive samples before the alarm is raised.
  /// PMUs deliver 30-60 samples/s, so even 3 costs only ~100 ms of
  /// latency while suppressing single-sample flicker.
  size_t alarm_after = 2;
  /// Consecutive normal samples before an active alarm clears.
  size_t clear_after = 3;
};

/// One processed sample's outcome.
struct StreamEvent {
  /// 0-based index of the sample within this session's stream (resets
  /// with Reset()); alarm events in the JSONL log carry the same index.
  uint64_t sample_index = 0;
  bool alarm_active = false;
  bool alarm_raised = false;   ///< transitioned to active at this sample
  bool alarm_cleared = false;  ///< transitioned to inactive at this sample
  /// The sample was dropped, stale, or rejected by the detector (see
  /// StreamOptions); debouncing state was not advanced and `raw`/`lines`
  /// carry no detection.
  bool sample_rejected = false;
  /// Majority-voted candidate lines over the vote window (stable F-hat);
  /// empty while no alarm is active.
  std::vector<grid::LineId> lines;
  /// Multi-line identification view of `lines`: the same majority-voted
  /// lines annotated with their mean per-line confidence over the votes
  /// that carried them. Populated only while an alarm is active AND the
  /// detector runs with max_outage_lines >= 2 (otherwise raw detections
  /// carry no outage_set and this stays empty).
  std::vector<DetectionResult::OutageHypothesis> outage_set;
  /// The raw single-sample detection (for logging/inspection).
  DetectionResult raw;
};

/// Per-tenant ingest/alarm tallies, updated by the session's producer
/// thread with relaxed atomics so any thread (the fleet engine's
/// TenantRows, an operator CLI) can poll a consistent-enough row
/// without locking. These are per-tenant views of the same happenings
/// the global `stream.*` counters aggregate.
struct TenantCounters {
  std::atomic<uint64_t> samples{0};           ///< debounced samples
  std::atomic<uint64_t> samples_rejected{0};  ///< rejected (bad) samples
  std::atomic<uint64_t> frames_dropped{0};
  std::atomic<uint64_t> frames_stale{0};
  std::atomic<uint64_t> alarms_raised{0};
  std::atomic<uint64_t> alarms_cleared{0};
};

/// A serializable copy of one session's mutable detection state: the
/// debounce counters, the vote window, the frame watermark, and the
/// per-tenant tallies — everything needed to resume a tenant's stream
/// on another engine (failover) minus the model itself, which ships
/// separately as a PWDET07 file. A session restored from a snapshot
/// and fed the same subsequent frames produces bit-identical events to
/// the session the snapshot was taken from.
struct TenantSnapshot {
  uint64_t next_sample_index = 0;
  bool alarm_active = false;
  uint64_t consecutive_positive = 0;
  uint64_t consecutive_negative = 0;
  /// Recent positive detections' candidate sets, oldest first.
  std::vector<std::vector<grid::LineId>> recent_votes;
  /// Per-line confidences aligned 1:1 with `recent_votes` (one entry per
  /// vote, one confidence per line in that vote). Votes from a
  /// single-line detector (no outage_set) carry 1.0 for every line.
  std::vector<std::vector<double>> recent_confidences;
  uint64_t last_timestamp_us = 0;
  bool has_timestamp = false;
  /// TenantCounters values at snapshot time.
  uint64_t samples = 0;
  uint64_t samples_rejected = 0;
  uint64_t frames_dropped = 0;
  uint64_t frames_stale = 0;
  uint64_t alarms_raised = 0;
  uint64_t alarms_cleared = 0;

  /// Most candidate lines one vote may carry in a snapshot; a longer
  /// length prefix is corrupt input and is refused before allocating.
  static constexpr size_t kMaxVoteLines = 1 << 16;

  /// Binary round trip (PWSNAP02, little-endian, length-prefixed).
  PW_NODISCARD Status WriteTo(std::ostream& out) const;
  PW_NODISCARD static Result<TenantSnapshot> ReadFrom(std::istream& in);
};

/// Per-grid detection state turning the per-sample OutageDetector into
/// an operator-facing alarm stream: debounces the alarm flag,
/// stabilizes the candidate line set by majority vote across recent
/// samples, screens transport-level frame faults, and carries the
/// tenant-scoped lifecycle (hot model reload, snapshot/restore, tenant
/// tallies) the fleet engine (detect/fleet.h) builds on. It is also the
/// single-grid entry point: a caller-threaded monitor for one grid is
/// one TenantSession on a shared_ptr<OutageDetector>.
///
/// Thread-safety contract (single producer, many observers): the
/// Process* family and Reset()/Restore() mutate debouncing state and
/// must be externally serialized — one ingest thread per session, as in
/// a PDC feed; in the fleet engine that thread is the owning shard's
/// drain loop. The cheap observers alarm_active(),
/// samples_processed(), and counters() may be polled concurrently from
/// other threads without locking, and ReloadModel()/model() are safe
/// from any thread (a pointer swap under a per-session lock; in-flight
/// samples finish on the model they started with).
/// tests/stream_concurrency_test.cc and tests/fleet_concurrency_test.cc
/// pin this contract down under ThreadSanitizer.
class TenantSession {
 public:
  /// `label` tags this tenant's JSONL events (empty = untagged, for a
  /// single-grid monitor). The detector is shared: sessions
  /// for identical grids may point at one trained model.
  TenantSession(std::shared_ptr<OutageDetector> detector,
                const StreamOptions& options, std::string label = "");

  /// Feeds one sample; returns the debounced event.
  PW_NODISCARD Result<StreamEvent> Process(const linalg::Vector& vm,
                                           const linalg::Vector& va,
                                           const sim::MissingMask& mask);

  /// Complete-sample convenience.
  PW_NODISCARD Result<StreamEvent> Process(const linalg::Vector& vm,
                                           const linalg::Vector& va);

  /// Feeds one transport-level frame (sim/fault_injection.h), honoring
  /// its metadata before the measurements are even looked at: dropped
  /// frames and frames whose timestamp does not advance past the last
  /// accepted one are rejected (`stream.frames_dropped` /
  /// `stream.frames_stale`), everything else flows into Process().
  /// Producer-thread only.
  PW_NODISCARD Result<StreamEvent> ProcessFrame(
      const sim::MeasurementFrame& frame);

  /// Safe to poll from any thread while the producer runs.
  bool alarm_active() const {
    return alarm_active_.load(std::memory_order_acquire);
  }
  /// Samples ingested since construction or the last Reset(), rejected
  /// ones included (each consumes one sample index). Safe to poll from
  /// any thread while the producer runs.
  uint64_t samples_processed() const {
    return next_sample_.load(std::memory_order_acquire);
  }
  /// Drops all debouncing/voting state (e.g. after operator ack).
  /// Producer-thread only.
  void Reset();

  /// Swaps in a freshly trained/loaded model for the same grid and PMU
  /// network (e.g. from a PWDET07 file). Safe from any thread, while
  /// the producer runs: the swap happens under the session's model
  /// lock, samples already in flight finish on the model they copied,
  /// and the first sample after the swap runs on the new model. Debounce
  /// state is carried across the reload — the alarm stream must not
  /// flap because operations rolled a model.
  void ReloadModel(std::shared_ptr<OutageDetector> model);

  /// The model new samples will run on. Safe from any thread.
  std::shared_ptr<OutageDetector> model() const {
    MutexLock lock(model_.mu);
    return model_.detector;
  }

  /// Copies the mutable detection state for failover. Producer-thread
  /// only (or externally quiesced), like the Process* family: a
  /// concurrent producer would tear the vote window. The fleet engine
  /// runs it on the owning shard for exactly that reason.
  TenantSnapshot Snapshot() const;

  /// Replaces this session's state with `snapshot` (the inverse of
  /// Snapshot). Validates the vote window against the current model's
  /// grid and refuses more than kVoteWindow votes, a window no live
  /// session holds. Producer-thread only.
  PW_NODISCARD Status Restore(const TenantSnapshot& snapshot);

  const std::string& label() const { return label_; }
  /// Per-tenant tallies; any thread.
  const TenantCounters& counters() const { return counters_; }

 private:
  /// Advances the debouncing state machine with one raw detection and
  /// builds its event (the tail of Process).
  StreamEvent Debounce(const OutageDetector& detector, DetectionResult raw);

  /// Builds a `sample_rejected` event for a sample the session refuses
  /// to feed into debouncing (consumes a sample index, leaves the
  /// debounce state alone).
  StreamEvent RejectSample(const Status& reason);

  std::vector<grid::LineId> MajorityLines() const;
  /// Annotates the majority lines with their mean confidence over the
  /// votes that carried them (multi-line detectors only; empty when no
  /// vote in the window carried confidences).
  std::vector<DetectionResult::OutageHypothesis> MajorityOutageSet(
      const std::vector<grid::LineId>& majority) const;
  /// Names for a candidate line set, for event logs ("Bus1-Bus2").
  std::vector<std::string> LineNames(
      const OutageDetector& detector,
      const std::vector<grid::LineId>& lines) const;

  /// Hot-reload slot: ReloadModel swaps the pointer and every sample
  /// copies it, both under `mu`, which guards nothing else. (libstdc++'s
  /// std::atomic<shared_ptr> is a lock bit ThreadSanitizer cannot see.)
  /// A nested struct, so the guarded-field contract applies to this one
  /// field; all other state below is producer-thread-owned except
  /// where noted.
  struct ModelSlot {
    mutable Mutex mu{lock_rank::kTenantModel};
    std::shared_ptr<OutageDetector> detector PW_GUARDED_BY(mu);
  };
  ModelSlot model_;
  StreamOptions options_;
  std::string label_;

  /// Atomic so observers can poll concurrently with the producer; all
  /// writes happen on the producer thread.
  std::atomic<uint64_t> next_sample_{0};
  std::atomic<bool> alarm_active_{false};
  size_t consecutive_positive_ = 0;
  size_t consecutive_negative_ = 0;
  /// Recent positive detections, oldest first: each vote's candidate
  /// lines with their confidences. A vote whose raw detection carried
  /// no outage_set (single-line detector) stores 1.0 per line.
  std::deque<std::vector<DetectionResult::OutageHypothesis>> recent_votes_;
  /// Timestamp of the last accepted frame (ProcessFrame staleness
  /// check). Producer-thread only, like the debounce counters.
  uint64_t last_timestamp_us_ = 0;
  bool has_timestamp_ = false;

  TenantCounters counters_;
};

}  // namespace phasorwatch::detect

#endif  // PHASORWATCH_DETECT_SESSION_H_
