#ifndef PHASORWATCH_SIM_FAULT_INJECTION_H_
#define PHASORWATCH_SIM_FAULT_INJECTION_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "sim/measurement.h"
#include "sim/missing_data.h"

namespace phasorwatch::sim {

/// One transport-layer PMU frame as delivered to a consumer: the phasor
/// channels, the availability mask, and the metadata a real PDC feed
/// carries. The missing-data machinery models the *benign* failure mode
/// (cleanly absent samples); this frame is the unit the fault injector
/// corrupts to model the malicious ones — gross bad data, frozen
/// channels, NaN/Inf, dropped frames, stale timestamps.
struct MeasurementFrame {
  linalg::Vector vm;   ///< voltage magnitudes (pu), one per node
  linalg::Vector va;   ///< voltage angles (rad), one per node
  MissingMask mask;    ///< nodes whose measurements are absent
  uint64_t timestamp_us = 0;  ///< PMU timetag; must advance frame to frame
  bool dropped = false;       ///< frame lost in transport (payload stale)

  /// Frame for column `col` of a data set, complete availability.
  static MeasurementFrame FromDataSet(const PhasorDataSet& data, size_t col,
                                      uint64_t timestamp_us = 0);
};

/// The fault taxonomy (see docs/ROBUSTNESS.md). Li et al.
/// (arXiv:1502.05789) show unscreened gross bad data wrecks outage
/// localization; the remaining modes are the standard PMU transport
/// pathologies.
enum class FaultType {
  kGrossError,      ///< additive spike far outside the operating range
  kFrozenChannel,   ///< device repeats its last transmitted value
  kNonFinite,       ///< NaN or +/-Inf delivered as a measurement
  kDroppedFrame,    ///< whole frame lost in transport
  kStaleTimestamp,  ///< timetag stops advancing (replayed payload)
};

/// Human-readable name for a fault type ("gross_error", ...).
const char* FaultTypeName(FaultType type);

/// One declarative fault: a device (node) misbehaving over a half-open
/// sample window [start, end). Frame-level faults (kDroppedFrame,
/// kStaleTimestamp) ignore `node`.
struct FaultEvent {
  FaultType type = FaultType::kGrossError;
  size_t node = 0;
  size_t start = 0;
  size_t end = 0;  ///< exclusive
  /// Gross-error spike scale multiplier on top of the injector's
  /// per-channel spike amplitudes (1.0 = 0.5 pu on vm, 1.0 rad on va).
  double magnitude = 1.0;
};

/// Sizing of a randomly drawn fault schedule, per fault type.
struct FaultScheduleOptions {
  size_t gross_errors = 0;
  size_t frozen_channels = 0;
  size_t non_finite = 0;
  size_t dropped_frames = 0;
  size_t stale_timestamps = 0;
  /// Samples each drawn event covers (clamped to the stream length).
  size_t window = 4;
};

/// A declarative, per-device, per-window fault plan. Schedules are data:
/// build them by hand for targeted tests or draw them with
/// MakeRandomFaultSchedule for chaos sweeps; either way the injection is
/// fully determined by (schedule, injector seed).
struct FaultSchedule {
  std::vector<FaultEvent> events;

  /// Checks every event against the stream shape: node in range for
  /// node-scoped faults, non-empty window, finite magnitude.
  /// `num_samples` = 0 means an unbounded stream (no upper window
  /// check).
  PW_NODISCARD Status Validate(size_t num_nodes, size_t num_samples) const;

  /// Total (event, sample) fault applications the schedule prescribes
  /// for a stream of `num_samples` frames — what FaultInjector::Stats
  /// and the `faults.injected` counter must reconcile with.
  size_t ExpectedApplications(size_t num_samples) const;

  bool empty() const { return events.empty(); }
};

/// Draws a schedule with the given per-type event counts. Deterministic:
/// event k is drawn from the Rng::Fork(seed, k) stream, so the schedule
/// depends only on (options, shape, seed).
PW_NODISCARD Result<FaultSchedule> MakeRandomFaultSchedule(
    const FaultScheduleOptions& options, size_t num_nodes,
    size_t num_samples, uint64_t seed);

/// Applies a FaultSchedule to a frame stream, one frame at a time.
///
/// Corruption is deterministic per (seed, event, sample): the random
/// draws behind a given application never depend on how many frames were
/// processed before it or on which thread applies it, so streaming
/// injection and whole-dataset injection produce identical corruption.
///
/// Stateful across frames (frozen-channel holds, stale timetags), so
/// frames must be fed in stream order; one injector per stream.
class FaultInjector {
 public:
  /// Validates the schedule against the stream shape (num_samples = 0
  /// for unbounded streams).
  PW_NODISCARD static Result<FaultInjector> Create(FaultSchedule schedule,
                                                   size_t num_nodes,
                                                   size_t num_samples,
                                                   uint64_t seed);

  /// Corrupts `frame` in place according to the events covering
  /// `sample_index`. The frame must have `num_nodes` entries per
  /// channel. Ticks the `faults.injected` counters.
  PW_NODISCARD Status Apply(size_t sample_index, MeasurementFrame* frame);

  /// Corrupts the columns of a data set (and the matching per-column
  /// masks) in column order; column t plays sample t. `masks` may be
  /// empty, in which case it is initialized to all-available; after the
  /// call masks->size() == data->num_samples() and dropped frames are
  /// all-missing in their mask.
  PW_NODISCARD Status ApplyToDataSet(PhasorDataSet* data,
                                     std::vector<MissingMask>* masks);

  /// Tallies of every corruption applied so far, for reconciling the
  /// obs counters against the schedule in tests.
  struct Stats {
    uint64_t injected = 0;  ///< total fault applications
    uint64_t gross_errors = 0;
    uint64_t frozen = 0;
    uint64_t non_finite = 0;
    uint64_t dropped = 0;
    uint64_t stale = 0;
  };
  const Stats& stats() const { return stats_; }

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  FaultInjector(FaultSchedule schedule, size_t num_nodes, uint64_t seed);

  void ApplyEvent(const FaultEvent& event, size_t event_index,
                  size_t sample_index, MeasurementFrame* frame);

  FaultSchedule schedule_;
  size_t num_nodes_ = 0;
  uint64_t seed_ = 0;
  Stats stats_;

  /// Frozen-channel state: last value transmitted per node (as
  /// corrupted), valid once the node has been seen.
  std::vector<double> last_vm_;
  std::vector<double> last_va_;
  std::vector<bool> has_last_;
  /// Stale-timestamp state: the last timetag emitted.
  uint64_t last_timestamp_us_ = 0;
  bool has_last_timestamp_ = false;
};

/// Element-wise OR of two availability masks (same size): missing in
/// either input is missing in the result. Composes injected drop
/// patterns with the Fig. 6 missing-data masks.
MissingMask UnionMasks(const MissingMask& a, const MissingMask& b);

}  // namespace phasorwatch::sim

#endif  // PHASORWATCH_SIM_FAULT_INJECTION_H_
