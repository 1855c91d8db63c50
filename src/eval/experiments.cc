#include "eval/experiments.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "sim/fault_injection.h"
#include "sim/missing_data.h"

namespace phasorwatch::eval {
namespace {

using detect::DetectionResult;
using grid::LineId;

// Draws up to `count` test columns of a case (all of them when the case
// has fewer).
std::vector<size_t> TestColumns(const sim::PhasorDataSet& data, size_t count,
                                Rng& rng) {
  size_t available = data.num_samples();
  size_t take = std::min(count, available);
  return rng.SampleWithoutReplacement(available, take);
}

// Builds the mask for a given scenario and sample.
sim::MissingMask MakeMask(MissingScenario scenario, size_t num_nodes,
                          const LineId& line, Rng& rng) {
  switch (scenario) {
    case MissingScenario::kNone:
      return sim::MissingMask::None(num_nodes);
    case MissingScenario::kOutageEndpoints:
      return sim::MissingAtOutage(num_nodes, line);
    case MissingScenario::kRandomOnNormal:
      return sim::MissingRandom(num_nodes, kRandomMissingCount, {}, rng);
    case MissingScenario::kRandomOffOutage:
      return sim::MissingRandom(num_nodes, kRandomMissingCount,
                                {line.i, line.j}, rng);
  }
  return sim::MissingMask::None(num_nodes);
}

}  // namespace

Result<TrainedMethods> TrainedMethods::Train(const Dataset& dataset,
                                             const ExperimentOptions& options) {
  TrainedMethods out;
  const grid::Grid& grid = *dataset.grid;

  PW_ASSIGN_OR_RETURN(
      sim::PmuNetwork network,
      sim::PmuNetwork::Build(
          grid, sim::PmuNetwork::DefaultClusterCount(grid.num_buses())));
  out.network_ = std::make_unique<sim::PmuNetwork>(std::move(network));

  detect::TrainingData training;
  training.normal = &dataset.normal.train;
  for (const CaseData& c : dataset.outages) {
    training.case_lines.push_back(c.line);
    training.outage.push_back(&c.train);
  }
  // The experiment-level parallelism setting drives the detector's
  // training fan-out too.
  detect::DetectorOptions detector_opts = options.detector;
  detector_opts.parallelism = options.parallelism;
  PW_ASSIGN_OR_RETURN(
      detect::OutageDetector detector,
      detect::OutageDetector::Train(grid, *out.network_, training,
                                    detector_opts));
  out.detector_ =
      std::make_unique<detect::OutageDetector>(std::move(detector));

  // pw-lint: allow(rng-discipline) experiment root seed stream.
  Rng mlr_rng(options.seed ^ 0xC0FFEEull);
  PW_ASSIGN_OR_RETURN(
      baselines::MlrClassifier mlr,
      baselines::MlrClassifier::Train(grid, dataset.normal.train,
                                      training.case_lines, training.outage,
                                      options.mlr, mlr_rng));
  out.mlr_ = std::make_unique<baselines::MlrClassifier>(std::move(mlr));
  return out;
}

Result<ScenarioResult> RunScenario(const Dataset& dataset,
                                   TrainedMethods& methods,
                                   MissingScenario scenario,
                                   const ExperimentOptions& options) {
  const grid::Grid& grid = *dataset.grid;
  const size_t n = grid.num_buses();
  const uint64_t scenario_seed =
      options.seed ^ (static_cast<uint64_t>(scenario) << 32);

  // One unit of parallel work (an outage case, or one normal sample in
  // the kRandomOnNormal scenario) accumulates into its own partial;
  // partials merge in index order below, so IA/FA sums are
  // bit-identical at every parallelism degree.
  struct PartialMetrics {
    MetricAccumulator subspace;
    MetricAccumulator mlr;
  };

  auto evaluate_sample = [&](PartialMetrics& acc,
                             const sim::PhasorDataSet& data, size_t col,
                             const std::vector<LineId>& truth,
                             const sim::MissingMask& mask) -> Status {
    auto [vm, va] = data.Sample(col);
    PW_ASSIGN_OR_RETURN(DetectionResult det,
                        methods.detector().Detect(vm, va, mask));
    acc.subspace.Add(ScoreSample(truth, det.lines));
    acc.mlr.Add(ScoreSample(truth, methods.mlr().PredictLines(vm, va, mask)));
    return Status::OK();
  };

  ThreadPool pool(ResolveParallelism(options.parallelism));
  std::vector<PartialMetrics> partials;

  if (scenario == MissingScenario::kRandomOnNormal) {
    // Sec. V-C2: normal-operation samples with random drops; the true
    // outage set is empty. Each sample owns seed stream s.
    size_t total = options.test_samples_per_case *
                   std::max<size_t>(1, dataset.outages.size() / 4);
    partials.resize(total);
    PW_RETURN_IF_ERROR(pool.ParallelFor(total, [&](size_t s) -> Status {
      Rng rng = Rng::Fork(scenario_seed, s);
      size_t col = static_cast<size_t>(
          rng.UniformInt(dataset.normal.test.num_samples()));
      sim::MissingMask mask = MakeMask(scenario, n, LineId(0, 0), rng);
      return evaluate_sample(partials[s], dataset.normal.test, col, {}, mask);
    }));
  } else {
    // Each outage case owns seed stream c_idx; its samples evaluate
    // serially within the case, drawing each mask in column order.
    partials.resize(dataset.outages.size());
    PW_RETURN_IF_ERROR(pool.ParallelFor(
        dataset.outages.size(), [&](size_t c_idx) -> Status {
          const CaseData& c = dataset.outages[c_idx];
          Rng rng = Rng::Fork(scenario_seed, c_idx);
          std::vector<size_t> cols =
              TestColumns(c.test, options.test_samples_per_case, rng);
          for (size_t col : cols) {
            sim::MissingMask mask = MakeMask(scenario, n, c.line, rng);
            PW_RETURN_IF_ERROR(
                evaluate_sample(partials[c_idx], c.test, col, {c.line}, mask));
          }
          return Status::OK();
        }));
  }

  MetricAccumulator subspace_acc;
  MetricAccumulator mlr_acc;
  for (const PartialMetrics& p : partials) {
    subspace_acc.Merge(p.subspace);
    mlr_acc.Merge(p.mlr);
  }

  ScenarioResult result;
  result.system = grid.name();
  result.num_buses = n;
  result.num_valid_cases = dataset.outages.size();
  result.methods.push_back({"subspace", subspace_acc.MeanIdentificationAccuracy(),
                            subspace_acc.MeanFalseAlarm(), subspace_acc.count()});
  result.methods.push_back({"mlr", mlr_acc.MeanIdentificationAccuracy(),
                            mlr_acc.MeanFalseAlarm(), mlr_acc.count()});
  return result;
}

Result<std::vector<ScenarioResult>> RunGroupFormationSweep(
    const Dataset& dataset, const std::vector<double>& alphas,
    const ExperimentOptions& options) {
  std::vector<ScenarioResult> results;
  for (double alpha : alphas) {
    ExperimentOptions opts = options;
    opts.detector.groups.learned_fraction = alpha;
    // The sweep probes detection-group quality, which only shows in the
    // paper's pure proximity-rule localization.
    opts.detector.localization = detect::LocalizationMode::kProximityRule;
    PW_ASSIGN_OR_RETURN(TrainedMethods methods,
                        TrainedMethods::Train(dataset, opts));
    PW_ASSIGN_OR_RETURN(
        ScenarioResult row,
        RunScenario(dataset, methods, MissingScenario::kNone, opts));
    // Keep only the subspace method; the sweep compares group choices.
    row.methods.resize(1);
    char label[32];
    std::snprintf(label, sizeof(label), "alpha=%.2f", alpha);
    row.methods[0].method = label;
    results.push_back(std::move(row));
  }
  return results;
}

Result<std::vector<ReliabilityPoint>> RunReliabilitySweep(
    const Dataset& dataset, TrainedMethods& methods,
    const std::vector<double>& device_availabilities,
    size_t patterns_per_level, const ExperimentOptions& options) {
  const grid::Grid& grid = *dataset.grid;
  const size_t n = grid.num_buses();
  // Reliability levels are independent Monte-Carlo estimates with their
  // own seeds, so the sweep fans out one level per pool slot; points
  // land in their level's slot, keeping output order and values
  // identical at every parallelism degree.
  std::vector<ReliabilityPoint> points(device_availabilities.size());
  ThreadPool pool(ResolveParallelism(options.parallelism));
  PW_RETURN_IF_ERROR(pool.ParallelFor(
      device_availabilities.size(), [&](size_t level) -> Status {
    double avail = device_availabilities[level];
    sim::PmuReliability rel;
    rel.r_pmu = avail;  // treat the product as the device availability
    rel.r_link = 1.0;
    // Each availability level is an independent experiment with its own
    // deterministic seed, so levels can run on any thread in any order.
    // pw-lint: allow(rng-discipline) per-level root seed stream.
    Rng rng(options.seed ^ 0x5EEDFULL ^
            static_cast<uint64_t>(avail * 1e9));

    MetricAccumulator acc;
    // Monte-Carlo over missing patterns, Eq. 13's weighted sum sampled
    // from the exact pattern distribution (Eq. 15): each draw selects a
    // pattern with probability p_l(r), so the average of FA_l over draws
    // is an unbiased estimator of FA(r).
    for (size_t p = 0; p < patterns_per_level; ++p) {
      sim::MissingMask mask =
          sim::MissingFromReliability(methods.network(), rel, rng);
      if (mask.count() == n) {
        // All PMUs dark: no application can act; the paper notes this
        // pattern's probability is negligible. Score as a miss.
        acc.Add({0.0, 0.0});
        continue;
      }
      // Rotate through outage cases and their test samples.
      const CaseData& c =
          dataset.outages[p % dataset.outages.size()];
      size_t col =
          static_cast<size_t>(rng.UniformInt(c.test.num_samples()));
      auto [vm, va] = c.test.Sample(col);
      PW_ASSIGN_OR_RETURN(DetectionResult det,
                          methods.detector().Detect(vm, va, mask));
      acc.Add(ScoreSample({c.line}, det.lines));
    }

    ReliabilityPoint point;
    point.device_availability = avail;
    point.system_reliability =
        std::pow(avail, static_cast<double>(n));
    point.effective_false_alarm = acc.MeanFalseAlarm();
    point.effective_accuracy = acc.MeanIdentificationAccuracy();
    points[level] = point;
    return Status::OK();
  }));
  return points;
}

std::vector<ChaosRegime> DefaultChaosRegimes() {
  std::vector<ChaosRegime> regimes(7);
  regimes[0].name = "clean";
  regimes[1].name = "gross_errors";
  regimes[1].faults.gross_errors = 3;
  regimes[2].name = "frozen_channels";
  regimes[2].faults.frozen_channels = 3;
  regimes[3].name = "non_finite";
  regimes[3].faults.non_finite = 3;
  regimes[4].name = "dropped_frames";
  regimes[4].faults.dropped_frames = 2;
  regimes[5].name = "stale_timestamps";
  regimes[5].faults.stale_timestamps = 2;
  regimes[6].name = "kitchen_sink";
  regimes[6].faults.gross_errors = 2;
  regimes[6].faults.frozen_channels = 2;
  regimes[6].faults.non_finite = 2;
  regimes[6].faults.dropped_frames = 1;
  regimes[6].faults.stale_timestamps = 1;
  return regimes;
}

Result<std::vector<ChaosResult>> RunChaosScenario(
    const Dataset& dataset, TrainedMethods& methods,
    const std::vector<ChaosRegime>& regimes,
    const ExperimentOptions& options) {
  const grid::Grid& grid = *dataset.grid;
  const size_t n = grid.num_buses();
  std::vector<ChaosResult> results;
  results.reserve(regimes.size());
  ThreadPool pool(ResolveParallelism(options.parallelism));
  for (size_t r_idx = 0; r_idx < regimes.size(); ++r_idx) {
    const ChaosRegime& regime = regimes[r_idx];
    const uint64_t regime_seed =
        options.seed ^ 0xC7A05EEDull ^ (static_cast<uint64_t>(r_idx) << 40);
    // Per-case partials, merged in index order below: results are
    // bit-identical at every parallelism degree, like RunScenario.
    struct Partial {
      MetricAccumulator acc;
      uint64_t injected = 0;
      uint64_t rejected = 0;
      uint64_t screened = 0;
    };
    std::vector<Partial> partials(dataset.outages.size());
    PW_RETURN_IF_ERROR(pool.ParallelFor(
        dataset.outages.size(), [&](size_t c_idx) -> Status {
          const CaseData& c = dataset.outages[c_idx];
          Partial& part = partials[c_idx];
          Rng rng = Rng::Fork(regime_seed, c_idx);
          std::vector<size_t> cols =
              TestColumns(c.test, options.test_samples_per_case, rng);
          // Compact copy of the drawn columns: the injector corrupts it
          // in place, leaving the dataset pristine for later regimes.
          sim::PhasorDataSet block;
          block.vm = linalg::Matrix(n, cols.size());
          block.va = linalg::Matrix(n, cols.size());
          for (size_t s = 0; s < cols.size(); ++s) {
            for (size_t i = 0; i < n; ++i) {
              block.vm(i, s) = c.test.vm(i, cols[s]);
              block.va(i, s) = c.test.va(i, cols[s]);
            }
          }
          std::vector<sim::MissingMask> masks;
          masks.reserve(cols.size());
          for (size_t s = 0; s < cols.size(); ++s) {
            masks.push_back(MakeMask(regime.missing, n, c.line, rng));
          }
          // Each case owns a deterministic schedule and injection
          // stream: 2*c_idx seeds the drawn schedule, 2*c_idx+1 the
          // corruption draws.
          PW_ASSIGN_OR_RETURN(
              sim::FaultSchedule schedule,
              sim::MakeRandomFaultSchedule(regime.faults, n, cols.size(),
                                           regime_seed + 2 * c_idx));
          PW_ASSIGN_OR_RETURN(
              sim::FaultInjector injector,
              sim::FaultInjector::Create(std::move(schedule), n, cols.size(),
                                         regime_seed + 2 * c_idx + 1));
          PW_RETURN_IF_ERROR(injector.ApplyToDataSet(&block, &masks));
          part.injected = injector.stats().injected;
          for (size_t s = 0; s < cols.size(); ++s) {
            auto [vm, va] = block.Sample(s);
            Result<DetectionResult> det =
                methods.detector().Detect(vm, va, masks[s]);
            if (!det.ok()) {
              if (det.status().code() != StatusCode::kInvalidArgument &&
                  det.status().code() != StatusCode::kDataMissing) {
                return det.status();
              }
              // The detector refused the sample (every node dark or
              // screened): an outage it could not identify.
              ++part.rejected;
              part.acc.Add({0.0, 0.0});
              continue;
            }
            part.screened += det.value().screened_nodes;
            part.acc.Add(ScoreSample({c.line}, det.value().lines));
          }
          return Status::OK();
        }));
    ChaosResult row;
    row.system = grid.name();
    row.regime = regime.name;
    MetricAccumulator acc;
    for (const Partial& p : partials) {
      acc.Merge(p.acc);
      row.faults_injected += p.injected;
      row.samples_rejected += p.rejected;
      row.screened_nodes += p.screened;
    }
    row.subspace = {"subspace", acc.MeanIdentificationAccuracy(),
                    acc.MeanFalseAlarm(), acc.count()};
    results.push_back(std::move(row));
  }
  return results;
}

}  // namespace phasorwatch::eval
