#include "sim/fault_injection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace phasorwatch::sim {
namespace {

// Gross-error spike amplitudes, in each channel's natural unit. They are
// unmistakably gross (a 50% voltage error / a radian of angle): bad data
// in the Li et al. sense is orders of magnitude outside the operating
// envelope, not noise-sized.
constexpr double kVmSpike = 0.5;  // pu
constexpr double kVaSpike = 1.0;  // rad

// Stream id for the (event, sample) pair: event indices occupy the high
// half, so every application draws from its own independent Rng::Fork
// stream regardless of processing order or thread.
uint64_t ApplicationStream(size_t event_index, size_t sample_index) {
  return (static_cast<uint64_t>(event_index) << 32) ^
         static_cast<uint64_t>(sample_index);
}

bool IsNodeScoped(FaultType type) {
  return type == FaultType::kGrossError || type == FaultType::kFrozenChannel ||
         type == FaultType::kNonFinite;
}

}  // namespace

const char* FaultTypeName(FaultType type) {
  switch (type) {
    case FaultType::kGrossError:
      return "gross_error";
    case FaultType::kFrozenChannel:
      return "frozen_channel";
    case FaultType::kNonFinite:
      return "non_finite";
    case FaultType::kDroppedFrame:
      return "dropped_frame";
    case FaultType::kStaleTimestamp:
      return "stale_timestamp";
  }
  return "unknown";
}

MeasurementFrame MeasurementFrame::FromDataSet(const PhasorDataSet& data,
                                               size_t col,
                                               uint64_t timestamp_us) {
  PW_CHECK_LT(col, data.num_samples());
  MeasurementFrame frame;
  auto [vm, va] = data.Sample(col);
  frame.vm = std::move(vm);
  frame.va = std::move(va);
  frame.mask = MissingMask::None(data.num_nodes());
  frame.timestamp_us = timestamp_us;
  return frame;
}

Status FaultSchedule::Validate(size_t num_nodes, size_t num_samples) const {
  for (size_t e = 0; e < events.size(); ++e) {
    const FaultEvent& event = events[e];
    if (event.start >= event.end) {
      return Status::InvalidArgument("fault event " + std::to_string(e) +
                                     ": empty window");
    }
    if (num_samples > 0 && event.end > num_samples) {
      return Status::InvalidArgument("fault event " + std::to_string(e) +
                                     ": window exceeds stream length");
    }
    if (IsNodeScoped(event.type) && event.node >= num_nodes) {
      return Status::InvalidArgument("fault event " + std::to_string(e) +
                                     ": node out of range");
    }
    if (!std::isfinite(event.magnitude) || event.magnitude <= 0.0) {
      return Status::InvalidArgument("fault event " + std::to_string(e) +
                                     ": magnitude must be finite and > 0");
    }
  }
  return Status::OK();
}

size_t FaultSchedule::ExpectedApplications(size_t num_samples) const {
  size_t total = 0;
  for (const FaultEvent& event : events) {
    size_t end = num_samples > 0 ? std::min(event.end, num_samples)
                                 : event.end;
    if (end > event.start) total += end - event.start;
  }
  return total;
}

Result<FaultSchedule> MakeRandomFaultSchedule(
    const FaultScheduleOptions& options, size_t num_nodes, size_t num_samples,
    uint64_t seed) {
  if (num_nodes == 0 || num_samples == 0) {
    return Status::InvalidArgument(
        "fault schedule needs a non-empty stream shape");
  }
  const size_t window = std::max<size_t>(
      1, std::min(options.window, num_samples));
  const std::pair<FaultType, size_t> plan[] = {
      {FaultType::kGrossError, options.gross_errors},
      {FaultType::kFrozenChannel, options.frozen_channels},
      {FaultType::kNonFinite, options.non_finite},
      {FaultType::kDroppedFrame, options.dropped_frames},
      {FaultType::kStaleTimestamp, options.stale_timestamps},
  };
  FaultSchedule schedule;
  size_t event_index = 0;
  for (const auto& [type, count] : plan) {
    for (size_t k = 0; k < count; ++k, ++event_index) {
      // Each event owns stream `event_index`: the drawn schedule depends
      // only on (options, shape, seed), never on draw order.
      Rng rng = Rng::Fork(seed, event_index);
      FaultEvent event;
      event.type = type;
      event.node = static_cast<size_t>(rng.UniformInt(num_nodes));
      event.start = static_cast<size_t>(
          rng.UniformInt(num_samples - window + 1));
      event.end = event.start + window;
      schedule.events.push_back(event);
    }
  }
  PW_RETURN_IF_ERROR(schedule.Validate(num_nodes, num_samples));
  return schedule;
}

FaultInjector::FaultInjector(FaultSchedule schedule, size_t num_nodes,
                             uint64_t seed)
    : schedule_(std::move(schedule)), num_nodes_(num_nodes), seed_(seed) {
  last_vm_.assign(num_nodes, 0.0);
  last_va_.assign(num_nodes, 0.0);
  has_last_.assign(num_nodes, false);
}

Result<FaultInjector> FaultInjector::Create(FaultSchedule schedule,
                                            size_t num_nodes,
                                            size_t num_samples,
                                            uint64_t seed) {
  if (num_nodes == 0) {
    return Status::InvalidArgument("fault injector needs at least one node");
  }
  PW_RETURN_IF_ERROR(schedule.Validate(num_nodes, num_samples));
  return FaultInjector(std::move(schedule), num_nodes, seed);
}

void FaultInjector::ApplyEvent(const FaultEvent& event, size_t event_index,
                               size_t sample_index, MeasurementFrame* frame) {
  // Every application owns its Rng::Fork stream, so the corruption drawn
  // here is identical whether frames are injected one by one or via
  // ApplyToDataSet.
  Rng rng = Rng::Fork(seed_, ApplicationStream(event_index, sample_index));
  switch (event.type) {
    case FaultType::kGrossError: {
      // A spike far outside the operating envelope (unit mismatch, sign
      // flip, garbled payload) on both channels of the device.
      double vm_sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      double vm_scale = rng.Uniform(0.75, 1.25);
      double va_sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      double va_scale = rng.Uniform(0.75, 1.25);
      frame->vm[event.node] +=
          vm_sign * vm_scale * event.magnitude * kVmSpike;
      frame->va[event.node] +=
          va_sign * va_scale * event.magnitude * kVaSpike;
      ++stats_.gross_errors;
      PW_OBS_COUNTER_INC("faults.injected.gross_error");
      break;
    }
    case FaultType::kFrozenChannel: {
      if (has_last_[event.node]) {
        frame->vm[event.node] = last_vm_[event.node];
        frame->va[event.node] = last_va_[event.node];
      }
      ++stats_.frozen;
      PW_OBS_COUNTER_INC("faults.injected.frozen_channel");
      break;
    }
    case FaultType::kNonFinite: {
      double value;
      switch (rng.UniformInt(3)) {
        case 0:
          value = std::numeric_limits<double>::quiet_NaN();
          break;
        case 1:
          value = std::numeric_limits<double>::infinity();
          break;
        default:
          value = -std::numeric_limits<double>::infinity();
          break;
      }
      if (rng.Bernoulli(0.5)) {
        frame->vm[event.node] = value;
      } else {
        frame->va[event.node] = value;
      }
      ++stats_.non_finite;
      PW_OBS_COUNTER_INC("faults.injected.non_finite");
      break;
    }
    case FaultType::kDroppedFrame: {
      frame->dropped = true;
      // Also dark in the availability mask, so consumers that only look
      // at the mask degrade the same way.
      frame->mask.missing.assign(frame->mask.missing.size(), true);
      ++stats_.dropped;
      PW_OBS_COUNTER_INC("faults.injected.dropped_frame");
      break;
    }
    case FaultType::kStaleTimestamp: {
      if (has_last_timestamp_) {
        frame->timestamp_us = last_timestamp_us_;
      }
      ++stats_.stale;
      PW_OBS_COUNTER_INC("faults.injected.stale_timestamp");
      break;
    }
  }
  ++stats_.injected;
  PW_OBS_COUNTER_INC("faults.injected");
}

Status FaultInjector::Apply(size_t sample_index, MeasurementFrame* frame) {
  if (frame == nullptr) {
    return Status::InvalidArgument("FaultInjector::Apply: null frame");
  }
  if (frame->vm.size() != num_nodes_ || frame->va.size() != num_nodes_ ||
      frame->mask.size() != num_nodes_) {
    return Status::InvalidArgument("FaultInjector::Apply: frame size mismatch");
  }
  for (size_t e = 0; e < schedule_.events.size(); ++e) {
    const FaultEvent& event = schedule_.events[e];
    if (sample_index < event.start || sample_index >= event.end) continue;
    ApplyEvent(event, e, sample_index, frame);
  }
  // Record what this frame transmitted: the frozen-channel hold repeats
  // the device's last *delivered* value, corrupted or not. Dropped
  // frames deliver nothing.
  if (!frame->dropped) {
    for (size_t i = 0; i < num_nodes_; ++i) {
      if (frame->mask.missing[i]) continue;
      last_vm_[i] = frame->vm[i];
      last_va_[i] = frame->va[i];
      has_last_[i] = true;
    }
    last_timestamp_us_ = frame->timestamp_us;
    has_last_timestamp_ = true;
  }
  return Status::OK();
}

Status FaultInjector::ApplyToDataSet(PhasorDataSet* data,
                                     std::vector<MissingMask>* masks) {
  if (data == nullptr || masks == nullptr) {
    return Status::InvalidArgument("ApplyToDataSet: null data or masks");
  }
  if (data->num_nodes() != num_nodes_) {
    return Status::InvalidArgument("ApplyToDataSet: data set size mismatch");
  }
  const size_t samples = data->num_samples();
  if (masks->empty()) {
    masks->assign(samples, MissingMask::None(num_nodes_));
  }
  if (masks->size() != samples) {
    return Status::InvalidArgument("ApplyToDataSet: masks/data length mismatch");
  }
  MeasurementFrame frame;
  for (size_t t = 0; t < samples; ++t) {
    frame = MeasurementFrame::FromDataSet(*data, t,
                                          /*timestamp_us=*/t * 1000);
    frame.mask = (*masks)[t];
    PW_RETURN_IF_ERROR(Apply(t, &frame));
    for (size_t i = 0; i < num_nodes_; ++i) {
      data->vm(i, t) = frame.vm[i];
      data->va(i, t) = frame.va[i];
    }
    (*masks)[t] = frame.mask;
  }
  return Status::OK();
}

MissingMask UnionMasks(const MissingMask& a, const MissingMask& b) {
  PW_CHECK_EQ(a.size(), b.size());
  MissingMask out = a;
  for (size_t i = 0; i < out.missing.size(); ++i) {
    if (b.missing[i]) out.missing[i] = true;
  }
  return out;
}

}  // namespace phasorwatch::sim
