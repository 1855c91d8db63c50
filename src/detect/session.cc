#include "detect/session.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/sync.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace phasorwatch::detect {
namespace {

// Errors the session absorbs as rejected samples: malformed
// measurements and data starvation are facts of life on a PMU feed.
// Everything else (internal errors, numerical failures) still
// propagates.
bool IsBadSampleError(StatusCode code) {
  return code == StatusCode::kInvalidArgument ||
         code == StatusCode::kDataMissing;
}

// TenantSnapshot wire format tag ("PWSNAP" + 2-digit version; PWSNAP02
// added the per-vote confidence vectors of the multi-line detector).
constexpr uint64_t kSnapshotMagic = 0x5057534e41503032ull;  // "PWSNAP02"
// A vote window is a handful of candidate sets; anything beyond this is
// corrupt input, not a real snapshot.
constexpr uint64_t kMaxSnapshotVotes = 1 << 16;

#ifndef PW_OBS_DISABLED
// "Bus1-Bus2:0.97" entries for the event log's outage_set field.
std::vector<std::string> OutageSetNames(
    const OutageDetector& detector,
    const std::vector<DetectionResult::OutageHypothesis>& set) {
  std::vector<std::string> names;
  names.reserve(set.size());
  for (const DetectionResult::OutageHypothesis& h : set) {
    char conf[32];
    std::snprintf(conf, sizeof(conf), ":%.2f", h.confidence);
    names.push_back(detector.grid().LineName(h.line) + conf);
  }
  return names;
}
#endif

}  // namespace

TenantSession::TenantSession(std::shared_ptr<OutageDetector> detector,
                             const StreamOptions& options, std::string label)
    : options_(options), label_(std::move(label)) {
  PW_CHECK(detector != nullptr);
  {
    MutexLock lock(model_.mu);
    model_.detector = std::move(detector);
  }
  PW_CHECK_GT(options_.alarm_after, 0u);
  PW_CHECK_GT(options_.clear_after, 0u);
}

void TenantSession::ReloadModel(std::shared_ptr<OutageDetector> model) {
  PW_CHECK(model != nullptr);
  {
    MutexLock lock(model_.mu);
    model_.detector.swap(model);
  }
  // `model` now holds the previous detector; this reference drops
  // outside the lock, and in-flight samples keep their own copies.
  PW_OBS_COUNTER_INC("stream.model_reloads");
#ifndef PW_OBS_DISABLED
  if (!label_.empty()) {
    obs::EventLog::Global().Emit("model_reloaded").Str("tenant", label_);
  } else {
    obs::EventLog::Global().Emit("model_reloaded");
  }
#endif
}

Result<StreamEvent> TenantSession::Process(const linalg::Vector& vm,
                                           const linalg::Vector& va,
                                           const sim::MissingMask& mask) {
  // End-to-end per-sample latency (detector + debounce), tail-accurate
  // via the like-named quantile histogram.
  PW_TRACE_SCOPE("stream.sample_us");
  // A reload racing this sample swaps the slot, not this copy.
  const std::shared_ptr<OutageDetector> detector = model();
  Result<DetectionResult> raw = detector->Detect(vm, va, mask);
  if (!raw.ok()) {
    if (!IsBadSampleError(raw.status().code())) return raw.status();
    return RejectSample(raw.status());
  }
  return Debounce(*detector, std::move(raw).value());
}

Result<StreamEvent> TenantSession::ProcessFrame(
    const sim::MeasurementFrame& frame) {
  // End-to-end frame latency, transport screening included. The
  // series' exact max is the worst single frame ever seen — the number
  // an operator compares against the PMU reporting interval.
  PW_TRACE_SCOPE("stream.frame_us");
  if (frame.dropped) {
    PW_OBS_COUNTER_INC("stream.frames_dropped");
    counters_.frames_dropped.fetch_add(1, std::memory_order_relaxed);
    return RejectSample(Status::DataMissing("frame dropped in transport"));
  }
  if (has_timestamp_ && frame.timestamp_us <= last_timestamp_us_) {
    PW_OBS_COUNTER_INC("stream.frames_stale");
    counters_.frames_stale.fetch_add(1, std::memory_order_relaxed);
    return RejectSample(Status::InvalidArgument(
        "frame timestamp did not advance (stale or replayed data)"));
  }
  last_timestamp_us_ = frame.timestamp_us;
  has_timestamp_ = true;
  return Process(frame.vm, frame.va, frame.mask);
}

StreamEvent TenantSession::RejectSample(const Status& reason) {
  StreamEvent event;
  event.sample_index = next_sample_++;
  event.sample_rejected = true;
  event.alarm_active = alarm_active_.load(std::memory_order_relaxed);
  PW_OBS_COUNTER_INC("stream.samples_rejected");
  counters_.samples_rejected.fetch_add(1, std::memory_order_relaxed);
  static_cast<void>(reason);
#ifndef PW_OBS_DISABLED
  {
    obs::EventLog::Event log_event =
        obs::EventLog::Global().Emit("sample_rejected");
    log_event.Uint("sample", event.sample_index)
        .Str("reason", reason.ToString());
    if (!label_.empty()) log_event.Str("tenant", label_);
  }
#endif
  return event;
}

StreamEvent TenantSession::Debounce(const OutageDetector& detector,
                                    DetectionResult raw) {
  // The alarm stage proper: debounce counters, majority vote, event
  // emission — everything after the detector returns.
  PW_TRACE_SCOPE("stream.stage.alarm_us");
  static_cast<void>(detector);  // Only read by the obs-gated event log.
  StreamEvent event;
  event.sample_index = next_sample_++;
  PW_OBS_COUNTER_INC("stream.samples");
  counters_.samples.fetch_add(1, std::memory_order_relaxed);
  event.raw = std::move(raw);

  if (event.raw.outage_detected) {
    ++consecutive_positive_;
    consecutive_negative_ = 0;
    // Multi-line raw detections carry per-line confidences in
    // outage_set (same lines, same order); legacy detections vote with
    // full confidence.
    std::vector<DetectionResult::OutageHypothesis> vote;
    vote.reserve(event.raw.lines.size());
    const bool has_confidences =
        event.raw.outage_set.size() == event.raw.lines.size();
    for (size_t k = 0; k < event.raw.lines.size(); ++k) {
      vote.push_back({event.raw.lines[k],
                      has_confidences ? event.raw.outage_set[k].confidence
                                      : 1.0});
    }
    recent_votes_.push_back(std::move(vote));
    while (recent_votes_.size() > kVoteWindow) recent_votes_.pop_front();
  } else {
    ++consecutive_negative_;
    consecutive_positive_ = 0;
  }

  if (!alarm_active_ && consecutive_positive_ >= options_.alarm_after) {
    alarm_active_ = true;
    event.alarm_raised = true;
  } else if (alarm_active_ && consecutive_negative_ >= options_.clear_after) {
    alarm_active_ = false;
    event.alarm_cleared = true;
    recent_votes_.clear();
  }

  event.alarm_active = alarm_active_;
  if (alarm_active_) {
    event.lines = MajorityLines();
    event.outage_set = MajorityOutageSet(event.lines);
  }

  if (event.alarm_raised) {
    counters_.alarms_raised.fetch_add(1, std::memory_order_relaxed);
  } else if (event.alarm_cleared) {
    counters_.alarms_cleared.fetch_add(1, std::memory_order_relaxed);
  }

#ifndef PW_OBS_DISABLED
  PW_OBS_GAUGE_SET("stream.alarm_active", alarm_active_ ? 1 : 0);
  if (event.alarm_raised) {
    PW_OBS_COUNTER_INC("stream.alarms_raised");
    obs::EventLog::Event log_event =
        obs::EventLog::Global().Emit("alarm_raised");
    log_event.Uint("sample", event.sample_index)
        .Num("decision_score", event.raw.decision_score)
        .StrList("candidate_lines", LineNames(detector, event.lines));
    if (!event.outage_set.empty()) {
      log_event.StrList("outage_set", OutageSetNames(detector, event.outage_set));
    }
    if (!label_.empty()) log_event.Str("tenant", label_);
  } else if (event.alarm_cleared) {
    PW_OBS_COUNTER_INC("stream.alarms_cleared");
    obs::EventLog::Event log_event =
        obs::EventLog::Global().Emit("alarm_cleared");
    log_event.Uint("sample", event.sample_index)
        .Num("decision_score", event.raw.decision_score);
    if (!label_.empty()) log_event.Str("tenant", label_);
  } else if (alarm_active_) {
    // Steady-state alarm tick: record the (possibly re-voted) F-hat so
    // the JSONL log shows the candidate set evolving sample by sample.
    obs::EventLog::Event log_event = obs::EventLog::Global().Emit("alarm_vote");
    log_event.Uint("sample", event.sample_index)
        .Num("decision_score", event.raw.decision_score)
        .StrList("candidate_lines", LineNames(detector, event.lines));
    if (!event.outage_set.empty()) {
      log_event.StrList("outage_set", OutageSetNames(detector, event.outage_set));
    }
    if (!label_.empty()) log_event.Str("tenant", label_);
  }
  // Per-sample heartbeat for debugging; rate-limited so a 30-60 Hz PMU
  // stream cannot flood stderr.
  PW_LOG_EVERY_N(Debug, 30) << "stream: sample " << event.sample_index
                            << " score=" << event.raw.decision_score
                            << (alarm_active_ ? " [ALARM]" : "");
#endif  // PW_OBS_DISABLED
  return event;
}

Result<StreamEvent> TenantSession::Process(const linalg::Vector& vm,
                                           const linalg::Vector& va) {
  return Process(vm, va, sim::MissingMask::None(vm.size()));
}

void TenantSession::Reset() {
  alarm_active_ = false;
  consecutive_positive_ = 0;
  consecutive_negative_ = 0;
  next_sample_ = 0;
  recent_votes_.clear();
  last_timestamp_us_ = 0;
  has_timestamp_ = false;
#ifndef PW_OBS_DISABLED
  if (!label_.empty()) {
    obs::EventLog::Global().Emit("monitor_reset").Str("tenant", label_);
  } else {
    obs::EventLog::Global().Emit("monitor_reset");
  }
  PW_OBS_GAUGE_SET("stream.alarm_active", 0);
#endif
}

TenantSnapshot TenantSession::Snapshot() const {
  TenantSnapshot snapshot;
  snapshot.next_sample_index = next_sample_.load(std::memory_order_relaxed);
  snapshot.alarm_active = alarm_active_.load(std::memory_order_relaxed);
  snapshot.consecutive_positive = consecutive_positive_;
  snapshot.consecutive_negative = consecutive_negative_;
  for (const auto& vote : recent_votes_) {
    std::vector<grid::LineId>& lines = snapshot.recent_votes.emplace_back();
    std::vector<double>& confidences =
        snapshot.recent_confidences.emplace_back();
    for (const DetectionResult::OutageHypothesis& h : vote) {
      lines.push_back(h.line);
      confidences.push_back(h.confidence);
    }
  }
  snapshot.last_timestamp_us = last_timestamp_us_;
  snapshot.has_timestamp = has_timestamp_;
  snapshot.samples = counters_.samples.load(std::memory_order_relaxed);
  snapshot.samples_rejected =
      counters_.samples_rejected.load(std::memory_order_relaxed);
  snapshot.frames_dropped =
      counters_.frames_dropped.load(std::memory_order_relaxed);
  snapshot.frames_stale =
      counters_.frames_stale.load(std::memory_order_relaxed);
  snapshot.alarms_raised =
      counters_.alarms_raised.load(std::memory_order_relaxed);
  snapshot.alarms_cleared =
      counters_.alarms_cleared.load(std::memory_order_relaxed);
  return snapshot;
}

Status TenantSession::Restore(const TenantSnapshot& snapshot) {
  if (snapshot.recent_votes.size() > kVoteWindow) {
    return Status::InvalidArgument(
        "snapshot vote window longer than any session keeps");
  }
  const size_t num_buses = model()->grid().num_buses();
  for (const std::vector<grid::LineId>& vote : snapshot.recent_votes) {
    for (const grid::LineId& line : vote) {
      if (line.i >= num_buses || line.j >= num_buses) {
        return Status::InvalidArgument(
            "snapshot vote references a bus outside the tenant's grid");
      }
    }
  }
  if (snapshot.recent_confidences.size() != snapshot.recent_votes.size()) {
    return Status::InvalidArgument(
        "snapshot confidence window out of step with the vote window");
  }
  for (size_t v = 0; v < snapshot.recent_votes.size(); ++v) {
    if (snapshot.recent_confidences[v].size() !=
        snapshot.recent_votes[v].size()) {
      return Status::InvalidArgument(
          "snapshot vote and its confidences disagree on line count");
    }
  }
  next_sample_.store(snapshot.next_sample_index, std::memory_order_release);
  alarm_active_.store(snapshot.alarm_active, std::memory_order_release);
  consecutive_positive_ = snapshot.consecutive_positive;
  consecutive_negative_ = snapshot.consecutive_negative;
  recent_votes_.clear();
  for (size_t v = 0; v < snapshot.recent_votes.size(); ++v) {
    std::vector<DetectionResult::OutageHypothesis>& vote =
        recent_votes_.emplace_back();
    for (size_t k = 0; k < snapshot.recent_votes[v].size(); ++k) {
      vote.push_back(
          {snapshot.recent_votes[v][k], snapshot.recent_confidences[v][k]});
    }
  }
  last_timestamp_us_ = snapshot.last_timestamp_us;
  has_timestamp_ = snapshot.has_timestamp;
  counters_.samples.store(snapshot.samples, std::memory_order_relaxed);
  counters_.samples_rejected.store(snapshot.samples_rejected,
                                   std::memory_order_relaxed);
  counters_.frames_dropped.store(snapshot.frames_dropped,
                                 std::memory_order_relaxed);
  counters_.frames_stale.store(snapshot.frames_stale,
                               std::memory_order_relaxed);
  counters_.alarms_raised.store(snapshot.alarms_raised,
                                std::memory_order_relaxed);
  counters_.alarms_cleared.store(snapshot.alarms_cleared,
                                 std::memory_order_relaxed);
  return Status::OK();
}

std::vector<grid::LineId> TenantSession::MajorityLines() const {
  // Count appearances of each candidate line over the window; keep the
  // lines present in more than half of the votes. Falls back to the
  // most recent raw candidate set when nothing clears the bar (early in
  // an event the window is short).
  std::map<grid::LineId, size_t> counts;
  for (const auto& vote : recent_votes_) {
    for (const DetectionResult::OutageHypothesis& h : vote) ++counts[h.line];
  }
  std::vector<grid::LineId> majority;
  size_t needed = recent_votes_.size() / 2 + 1;
  for (const auto& [line, count] : counts) {
    if (count >= needed) majority.push_back(line);
  }
  if (majority.empty() && !recent_votes_.empty()) {
    for (const DetectionResult::OutageHypothesis& h : recent_votes_.back()) {
      majority.push_back(h.line);
    }
  }
  return majority;
}

std::vector<DetectionResult::OutageHypothesis>
TenantSession::MajorityOutageSet(
    const std::vector<grid::LineId>& majority) const {
  // Mean confidence per majority line over the votes that carried it.
  // Legacy (single-line) votes store 1.0 per line, so a pure legacy
  // window reports the majority set with full confidence — callers that
  // only care about multi-line output key off the detector options.
  std::vector<DetectionResult::OutageHypothesis> set;
  if (recent_votes_.empty()) return set;
  set.reserve(majority.size());
  for (const grid::LineId& line : majority) {
    double sum = 0.0;
    size_t carried = 0;
    for (const auto& vote : recent_votes_) {
      for (const DetectionResult::OutageHypothesis& h : vote) {
        if (h.line == line) {
          sum += h.confidence;
          ++carried;
          break;
        }
      }
    }
    set.push_back({line, carried > 0 ? sum / carried : 0.0});
  }
  return set;
}

std::vector<std::string> TenantSession::LineNames(
    const OutageDetector& detector,
    const std::vector<grid::LineId>& lines) const {
  std::vector<std::string> names;
  names.reserve(lines.size());
  for (const grid::LineId& line : lines) {
    names.push_back(detector.grid().LineName(line));
  }
  return names;
}

Status TenantSnapshot::WriteTo(std::ostream& out) const {
  BinaryWriter writer(out);
  writer.WriteU64(kSnapshotMagic);
  writer.WriteU64(next_sample_index);
  writer.WriteBool(alarm_active);
  writer.WriteU64(consecutive_positive);
  writer.WriteU64(consecutive_negative);
  writer.WriteU64(recent_votes.size());
  for (const std::vector<grid::LineId>& vote : recent_votes) {
    // Each vote flattens to [i0, j0, i1, j1, ...]; LineId normalizes
    // i < j on construction, so the flat form round-trips exactly.
    std::vector<size_t> flat;
    flat.reserve(vote.size() * 2);
    for (const grid::LineId& line : vote) {
      flat.push_back(line.i);
      flat.push_back(line.j);
    }
    writer.WriteSizeVector(flat);
  }
  // Confidence vectors, aligned 1:1 with the votes above (PWSNAP02).
  writer.WriteU64(recent_confidences.size());
  for (const std::vector<double>& confidences : recent_confidences) {
    writer.WriteDoubleVector(confidences);
  }
  writer.WriteU64(last_timestamp_us);
  writer.WriteBool(has_timestamp);
  writer.WriteU64(samples);
  writer.WriteU64(samples_rejected);
  writer.WriteU64(frames_dropped);
  writer.WriteU64(frames_stale);
  writer.WriteU64(alarms_raised);
  writer.WriteU64(alarms_cleared);
  if (!writer.ok()) {
    return Status::Internal("TenantSnapshot write failed (stream error)");
  }
  return Status::OK();
}

Result<TenantSnapshot> TenantSnapshot::ReadFrom(std::istream& in) {
  BinaryReader reader(in);
  PW_ASSIGN_OR_RETURN(uint64_t magic, reader.ReadU64());
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a PWSNAP02 tenant snapshot");
  }
  TenantSnapshot snapshot;
  PW_ASSIGN_OR_RETURN(snapshot.next_sample_index, reader.ReadU64());
  PW_ASSIGN_OR_RETURN(snapshot.alarm_active, reader.ReadBool());
  PW_ASSIGN_OR_RETURN(snapshot.consecutive_positive, reader.ReadU64());
  PW_ASSIGN_OR_RETURN(snapshot.consecutive_negative, reader.ReadU64());
  PW_ASSIGN_OR_RETURN(uint64_t num_votes, reader.ReadU64());
  if (num_votes > kMaxSnapshotVotes) {
    return Status::InvalidArgument("tenant snapshot vote window too large");
  }
  snapshot.recent_votes.reserve(num_votes);
  for (uint64_t v = 0; v < num_votes; ++v) {
    // Two bus indices per line.
    PW_ASSIGN_OR_RETURN(std::vector<size_t> flat,
                        reader.ReadSizeVector(2 * kMaxVoteLines));
    if (flat.size() % 2 != 0) {
      return Status::InvalidArgument(
          "tenant snapshot vote has a dangling bus index");
    }
    std::vector<grid::LineId> vote;
    vote.reserve(flat.size() / 2);
    for (size_t k = 0; k + 1 < flat.size(); k += 2) {
      vote.emplace_back(flat[k], flat[k + 1]);
    }
    snapshot.recent_votes.push_back(std::move(vote));
  }
  PW_ASSIGN_OR_RETURN(uint64_t num_confidences, reader.ReadU64());
  if (num_confidences != num_votes) {
    return Status::InvalidArgument(
        "tenant snapshot confidence window out of step with its votes");
  }
  snapshot.recent_confidences.reserve(num_confidences);
  for (uint64_t v = 0; v < num_confidences; ++v) {
    PW_ASSIGN_OR_RETURN(
        std::vector<double> confidences,
        reader.ReadDoubleVector(snapshot.recent_votes[v].size()));
    if (confidences.size() != snapshot.recent_votes[v].size()) {
      return Status::InvalidArgument(
          "tenant snapshot vote and its confidences disagree on line count");
    }
    snapshot.recent_confidences.push_back(std::move(confidences));
  }
  PW_ASSIGN_OR_RETURN(snapshot.last_timestamp_us, reader.ReadU64());
  PW_ASSIGN_OR_RETURN(snapshot.has_timestamp, reader.ReadBool());
  PW_ASSIGN_OR_RETURN(snapshot.samples, reader.ReadU64());
  PW_ASSIGN_OR_RETURN(snapshot.samples_rejected, reader.ReadU64());
  PW_ASSIGN_OR_RETURN(snapshot.frames_dropped, reader.ReadU64());
  PW_ASSIGN_OR_RETURN(snapshot.frames_stale, reader.ReadU64());
  PW_ASSIGN_OR_RETURN(snapshot.alarms_raised, reader.ReadU64());
  PW_ASSIGN_OR_RETURN(snapshot.alarms_cleared, reader.ReadU64());
  return snapshot;
}

}  // namespace phasorwatch::detect
