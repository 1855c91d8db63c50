#include "detect/detector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace phasorwatch::detect {
namespace {

using linalg::Matrix;
using linalg::Vector;

// Stable model keys for the proximity cache. Node keys occupy the even
// and odd slots after the normal model; line-case keys start past the
// node range (grids here are far below 2^20 nodes).
constexpr uint64_t kNormalModelKey = 0;
uint64_t UnionKey(size_t node) { return 1 + 2 * node; }
uint64_t IntersectionKey(size_t node) { return 2 + 2 * node; }
// All whitened classification models share one coefficient matrix, so
// they share a single cache family key.
constexpr uint64_t kClassFamilyKey = uint64_t{1} << 21;

// Floor keeping the Eq. 11 ratio finite when the normal residual is
// numerically zero.
constexpr double kProxFloor = 1e-15;

// Peeling threshold sentinel for cases with no calibrated null
// distribution (single-case training): no residual drop ever clears it,
// so such a case can only be the anchor line, never a peeled addition.
constexpr double kPeelTauNever = 1e300;

// The paper's fixed pipeline (Sec. IV). No caller varies these.
// Eigenvalue threshold of the soft constraint intersection used for
// the node union subspaces (Eq. 3).
constexpr double kSoftIntersectionTol = 0.6;
// Ellipse inflation for the capability learning (Eq. 4).
constexpr double kEllipseMargin = 1.15;
// Proximity rule: stop extending the affected-node prefix when the
// next score jumps by more than this factor (the elbow), and never
// take more than kMaxAffectedNodes nodes.
constexpr double kGapFactor = 12.0;
constexpr size_t kMaxAffectedNodes = 6;
// Normal training samples used to calibrate the gates.
constexpr size_t kCalibrationSamples = 60;
// The outage gate fires when a cluster's normal-subspace residual
// exceeds this multiple of the largest residual seen on normal
// calibration data with the same detection-group variant.
constexpr double kGateMargin = 2.5;
// Second, scale-free gate: an outage is also declared when the best
// line-model residual falls below this fraction of the normal-model
// residual (both over the pooled detection group). Train pulls it down
// if normal calibration data gets close to a line model.
constexpr double kRatioGate = 0.8;
// Absolute margin on top of every calibrated peel threshold tau(c | t)
// (the drop statistic is ~ +1 for a genuinely present line): trades
// missed weak second lines for fewer phantom ones on data beyond the
// calibration corpus.
constexpr double kPeelMargin = 0.05;

}  // namespace

Result<OutageDetector> OutageDetector::Train(const grid::Grid& grid,
                                             const sim::PmuNetwork& network,
                                             const TrainingData& data,
                                             const DetectorOptions& options) {
  PW_TRACE_SCOPE("detect.train_us");
  const size_t n = grid.num_buses();
  if (data.normal == nullptr || data.normal->num_nodes() != n) {
    return Status::InvalidArgument("normal training data missing or wrong size");
  }
  if (data.case_lines.size() != data.outage.size() || data.outage.empty()) {
    return Status::InvalidArgument("outage training cases malformed");
  }
  if (network.num_nodes() != n) {
    return Status::InvalidArgument("PMU network size mismatch");
  }

  OutageDetector det;
  det.grid_ = &grid;
  det.network_ = &network;
  det.options_ = options;
  det.case_lines_ = data.case_lines;

  // Every fan-out below writes only its own slots and keeps each
  // double's operations in their serial order, so the trained model is
  // bit-identical at any parallelism degree.
  ThreadPool pool(ResolveParallelism(options.parallelism));

  // 1. Subspace model per condition. The normal model keeps its full
  // basis until the whitened classification family is built from it.
  // Per-line models are independent SVD/eigensolve problems, so the
  // loop fans out across the pool. They only feed the case means and
  // the node subspaces below, so they are not kept.
  std::vector<SubspaceModel> line_models(data.outage.size());
  {
    PW_TRACE_SCOPE("detect.train.class_models_us");
    SubspaceModelOptions normal_opts = options.subspace;
    normal_opts.keep_full_basis = true;
    PW_ASSIGN_OR_RETURN(
        det.normal_model_,
        LearnSubspaceModel(FeatureMatrix(*data.normal), normal_opts));
    PW_RETURN_IF_ERROR(pool.ParallelFor(
        data.outage.size(), [&](size_t c) -> Status {
          const sim::PhasorDataSet* block = data.outage[c];
          if (block == nullptr || block->num_nodes() != n) {
            return Status::InvalidArgument(
                "outage training block missing/wrong size");
          }
          PW_ASSIGN_OR_RETURN(
              line_models[c],
              LearnSubspaceModel(FeatureMatrix(*block), options.subspace));
          return Status::OK();
        }));
    std::vector<Vector> case_means;
    case_means.reserve(line_models.size());
    for (const SubspaceModel& m : line_models) case_means.push_back(m.mean);
    det.class_family_ = ClassFamily(
        MakeWhitenedClassModel(det.normal_model_, det.normal_model_.mean,
                               data.normal->num_samples()),
        std::move(case_means));
    // Detect reads a model's mean and constraint basis only; drop the
    // spectrum and full basis so neither this model nor the node
    // fallback copies below carry state the saved file does not.
    det.normal_model_.singular_values = Vector();
    det.normal_model_.full_basis = Matrix();
  }

  // 2. Node-based union/intersection subspaces (Eq. 3). Nodes with no
  // valid outage case fall back to the normal model's constraints so
  // their scores stay defined (they simply never rank first). One
  // independent eigensolve per node, fanned out across the pool.
  {
    PW_TRACE_SCOPE("detect.train.node_subspaces_us");
    det.node_models_.resize(n);
    PW_RETURN_IF_ERROR(pool.ParallelFor(n, [&](size_t i) -> Status {
      std::vector<const SubspaceModel*> incident;
      for (size_t c = 0; c < det.case_lines_.size(); ++c) {
        if (det.case_lines_[c].i == i || det.case_lines_[c].j == i) {
          incident.push_back(&line_models[c]);
        }
      }
      if (incident.empty()) {
        det.node_models_[i].union_model = det.normal_model_;
        det.node_models_[i].intersection_model = det.normal_model_;
      } else {
        PW_ASSIGN_OR_RETURN(det.node_models_[i],
                            BuildNodeSubspaces(incident, kSoftIntersectionTol));
      }
      return Status::OK();
    }));
  }

  // 3. Normal-operation ellipses (Eq. 4).
  {
    PW_TRACE_SCOPE("detect.train.ellipses_us");
    det.ellipses_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      std::vector<PhasorPoint> points;
      points.reserve(data.normal->num_samples());
      for (size_t t = 0; t < data.normal->num_samples(); ++t) {
        points.push_back({data.normal->vm(i, t), data.normal->va(i, t)});
      }
      PW_ASSIGN_OR_RETURN(EllipseModel ellipse,
                          EllipseModel::Fit(points, kEllipseMargin));
      det.ellipses_.push_back(ellipse);
    }
  }

  // 4. Detection capabilities (Eqs. 5-7).
  {
    PW_TRACE_SCOPE("detect.train.capabilities_us");
    PW_ASSIGN_OR_RETURN(
        det.capabilities_,
        CapabilityTable::Build(grid, det.ellipses_, *data.normal,
                               det.case_lines_, data.outage));
  }

  // 5. Per-cluster detection groups (Eq. 8 + naive PCA seed).
  {
    PW_TRACE_SCOPE("detect.train.groups_us");
    DetectionGroupBuilder builder(network, det.capabilities_,
                                  options.groups);
    det.groups_.reserve(network.num_clusters());
    for (size_t c = 0; c < network.num_clusters(); ++c) {
      // Loading matrix: stack the constraint bases of the cluster
      // nodes' union subspaces; rows are node loadings for the naive
      // pick.
      std::vector<const linalg::Subspace*> bases;
      for (size_t node : network.Cluster(c)) {
        bases.push_back(&det.node_models_[node].union_model.constraints);
      }
      det.groups_.push_back(
          builder.Build(c, linalg::Subspace::StackBases(bases)));
    }
  }

  // 6. Calibrate the per-cluster outage gates: the largest
  // normal-subspace residual observed on normal training samples, for
  // each detection-group variant, inflated by the gate margin. A test
  // sample whose residual exceeds a gate is declared an outage.
  const size_t num_clusters = network.num_clusters();
  det.gates_.assign(num_clusters, {});
  size_t normal_take =
      std::min(kCalibrationSamples, data.normal->num_samples());
  if (normal_take == 0) {
    return Status::InvalidArgument("no calibration samples available");
  }
  det.node_baseline_in_ = Vector(n, 1.0);
  det.node_baseline_out_ = Vector(n, 1.0);
  {
    PW_TRACE_SCOPE("detect.train.gate_calibration_us");
    std::vector<Vector> features(normal_take);
    for (size_t t = 0; t < normal_take; ++t) {
      auto [vm, va] = data.normal->Sample(t);
      features[t] = FeatureVector(vm, va);
    }
    // residuals[t][c] and scores[t][i] of normal sample t. Every cache
    // key the gate builds belongs to one cluster (its normal model
    // through the cluster's group) or to one node (its union and
    // intersection models), so the passes fan out over clusters, then
    // over nodes, and each task makes its own cold builds. Over samples,
    // every task would wait on the same single-flight builds. The maxima
    // and the per-node score lists are then folded serially in sample
    // order.
    std::vector<Vector> residuals(normal_take, Vector(num_clusters));
    std::vector<Vector> scores(normal_take, Vector(n));
    for (int variant = 0; variant < 2; ++variant) {
      // variant 0: in-cluster groups (complete data); variant 1:
      // out-of-cluster groups (cluster data missing).
      std::vector<SelectedGroup> groups(num_clusters);
      for (size_t c = 0; c < num_clusters; ++c) {
        sim::MissingMask mask = sim::MissingMask::None(n);
        if (variant == 1) {
          // Force the out-of-cluster variant by marking one member of the
          // cluster missing (its own group members remain available).
          mask.missing[network.Cluster(c).front()] = true;
          det.SelectGroupInto(c, mask, &groups[c]);
          groups[c].used_out_of_cluster = true;
        } else {
          det.SelectGroupInto(c, mask, &groups[c]);
        }
      }
      PW_RETURN_IF_ERROR(
          pool.ParallelFor(num_clusters, [&](size_t c) -> Status {
            for (size_t t = 0; t < normal_take; ++t) {
              PW_ASSIGN_OR_RETURN(
                  residuals[t][c],
                  det.ClusterNormalResidual(c, features[t], groups[c]));
            }
            return Status::OK();
          }));
      PW_RETURN_IF_ERROR(pool.ParallelFor(n, [&](size_t i) -> Status {
        const size_t cluster = network.ClusterOf(i);
        for (size_t t = 0; t < normal_take; ++t) {
          PW_ASSIGN_OR_RETURN(scores[t][i],
                              det.RawNodeScore(i, features[t], groups[cluster],
                                               residuals[t][cluster]));
        }
        return Status::OK();
      }));
      std::vector<double> worst(num_clusters, kProxFloor);
      std::vector<std::vector<double>> raw_scores(n);
      for (size_t t = 0; t < normal_take; ++t) {
        for (size_t c = 0; c < num_clusters; ++c) {
          worst[c] = std::max(worst[c], residuals[t][c]);
        }
        for (size_t i = 0; i < n; ++i) raw_scores[i].push_back(scores[t][i]);
      }
      for (size_t c = 0; c < num_clusters; ++c) {
        double gate = worst[c] * kGateMargin;
        if (variant == 0) {
          det.gates_[c].in_cluster = gate;
        } else {
          det.gates_[c].out_of_cluster = gate;
        }
      }
      // Per-node baselines: median raw score on normal data.
      Vector& baseline =
          variant == 0 ? det.node_baseline_in_ : det.node_baseline_out_;
      for (size_t i = 0; i < n; ++i) {
        std::vector<double>& samples = raw_scores[i];
        std::nth_element(samples.begin(),
                         samples.begin() + samples.size() / 2, samples.end());
        baseline[i] = std::max(samples[samples.size() / 2], kProxFloor);
      }
    }
  }

  // Calibrate the ratio gate: on normal data the best line-model
  // residual should stay well above kRatioGate * normal residual; pull
  // the gate down if any normal calibration sample gets close.
  {
    PW_TRACE_SCOPE("detect.train.ratio_calibration_us");
    // Evaluate normal calibration samples both complete and under a
    // rotating random mask: missing entries shift the ratio statistic
    // slightly and the gate must stay quiet for both.
    // pw-lint: allow(rng-discipline) fixed-seed self-check stream.
    Rng mask_rng(0x9A7E5EEDull);
    double lowest_normal_ratio = 1e300;
    std::vector<size_t> coords;
    FamilyResiduals family;
    auto ratio_for = [&](const Vector& features,
                         const std::vector<size_t>& avail) -> Result<double> {
      det.GroupCoordinatesInto(avail, &coords);
      PW_RETURN_IF_ERROR(det.engine_.EvaluateFamily(
          det.class_family_, kClassFamilyKey, features, coords, &family));
      double best = -1.0;
      for (size_t c = 0; c < family.cases.size(); ++c) {
        if (best < 0.0 || family.cases[c] < best) best = family.cases[c];
      }
      return best / std::max(family.normal, kProxFloor);
    };
    std::vector<size_t> all_nodes(n);
    std::iota(all_nodes.begin(), all_nodes.end(), size_t{0});
    for (size_t t = 0; t < normal_take; ++t) {
      auto [vm, va] = data.normal->Sample(t);
      Vector features = FeatureVector(vm, va);
      PW_ASSIGN_OR_RETURN(double complete_ratio,
                          ratio_for(features, all_nodes));
      lowest_normal_ratio = std::min(lowest_normal_ratio, complete_ratio);
      sim::MissingMask mask =
          sim::MissingRandom(n, 1 + mask_rng.UniformInt(4), {}, mask_rng);
      PW_ASSIGN_OR_RETURN(double masked_ratio,
                          ratio_for(features, mask.AvailableIndices()));
      lowest_normal_ratio = std::min(lowest_normal_ratio, masked_ratio);
    }
    det.ratio_gate_ = std::min(kRatioGate, 0.9 * lowest_normal_ratio);
    if (lowest_normal_ratio < kRatioGate) {
      PW_LOG(Warning) << "ratio gate pulled down to " << det.ratio_gate_
                      << " on " << grid.name()
                      << " (normal data approaches a line model)";
    }
  }

  // Calibrate the peeling acceptance thresholds (multi-line
  // identification only). For each single-outage training sample of
  // case t, peel the TRUE line's mean shift and record the normalized
  // residual drop
  //   delta_c = (r_peeled_normal - r_peeled_class_c) / ||R d_c||^2
  // every other case c would have scored (FamilyResiduals::drops, the
  // statistic Detect thresholds) — the null distribution of a
  // spurious second line riding on a real first one. The thresholds
  // are conditioned on the anchor: tau(c | t) is the maximum of the
  // (c, t) cell plus kPeelMargin, because the leftover
  // nonlinearity of a real outage t is systematic — some neighbors c
  // always pick up part of it — and a threshold pooled across anchors
  // would let exactly those phantoms through. The calibration sweeps
  // the FULL training corpus (not kCalibrationSamples) so each (c, t)
  // cell is densely sampled. Skipped entirely at the default
  // max_outage_lines = 1 so legacy training stays bit-identical.
  if (options.max_outage_lines >= 2) {
    PW_TRACE_SCOPE("detect.train.peel_calibration_us");
    std::vector<size_t> all_nodes(n);
    std::iota(all_nodes.begin(), all_nodes.end(), size_t{0});
    std::vector<size_t> all_coords;
    det.GroupCoordinatesInto(all_nodes, &all_coords);
    const Matrix& shifts = det.class_family_.shifts();
    const size_t dim = shifts.rows();
    const size_t num_cases = data.outage.size();

    // A masked variant per sample, mirroring the ratio-gate
    // calibration: the bad-data screen and transport loss both shrink
    // the coordinate set at detect time, and the whitened geometry over
    // fewer coordinates spreads the spurious deltas beyond their
    // complete-coordinate envelope. Every mask is drawn up front,
    // serially in corpus order, so the draws do not depend on how the
    // cases are scheduled below.
    // pw-lint: allow(rng-discipline) fixed-seed self-check stream.
    Rng peel_mask_rng(0x9EE15EEDull);
    std::vector<std::vector<sim::MissingMask>> masks(num_cases);
    for (size_t t = 0; t < num_cases; ++t) {
      masks[t].reserve(data.outage[t]->num_samples());
      for (size_t s = 0; s < data.outage[t]->num_samples(); ++s) {
        masks[t].push_back(sim::MissingRandom(
            n, 1 + peel_mask_rng.UniformInt(4), {}, peel_mask_rng));
      }
    }

    // Running maximum per (c, t) cell; -inf marks a cell with no sample
    // (the diagonal, or a case with an empty training block).
    constexpr double kUnsampled = -std::numeric_limits<double>::infinity();
    det.peel_tau_.assign(num_cases * num_cases, kUnsampled);
    // Case t folds its samples into column t of peel_tau_ (the (c, t)
    // cells) and no other, so the cases fan out across the pool; each
    // takes its own residuals and scratch. Calibration stays on the
    // serving cache: the coordinate sets it builds are warm for Detect.
    PW_RETURN_IF_ERROR(pool.ParallelFor(num_cases, [&](size_t t) -> Status {
      FamilyResiduals family;
      std::vector<size_t> available;
      std::vector<size_t> masked_coords;
      // Folds the spurious deltas of every non-true case on a peeled
      // sample over one coordinate set into their cells. Each drop is
      // normalized by the shift energy over that same set, as Detect's
      // is over its pooled coordinates, so masked variants keep the
      // statistic's scale.
      auto record_nulls = [&](const Vector& peeled,
                              const std::vector<size_t>& coords) -> Status {
        PW_RETURN_IF_ERROR(det.engine_.EvaluateFamily(
            det.class_family_, kClassFamilyKey, peeled, coords, &family));
        for (size_t c = 0; c < num_cases; ++c) {
          if (c == t) continue;
          double& cell = det.peel_tau_[c * num_cases + t];
          cell = std::max(cell, family.drops[c]);
        }
        return Status::OK();
      };
      const sim::PhasorDataSet* block = data.outage[t];
      for (size_t s = 0; s < block->num_samples(); ++s) {
        auto [vm, va] = block->Sample(s);
        Vector peeled = FeatureVector(vm, va);
        for (size_t i = 0; i < dim; ++i) peeled[i] -= shifts(i, t);
        PW_RETURN_IF_ERROR(record_nulls(peeled, all_coords));
        masks[t][s].AvailableIndicesInto(&available);
        det.GroupCoordinatesInto(available, &masked_coords);
        PW_RETURN_IF_ERROR(record_nulls(peeled, masked_coords));
      }
      return Status::OK();
    }));
    for (double& tau : det.peel_tau_) {
      tau = tau == kUnsampled ? kPeelTauNever : tau + kPeelMargin;
    }
  }

  // Diagnostic: check separation on a few outage calibration samples.
  {
    std::vector<SelectedGroup> groups;
    det.SelectGroupsInto(sim::MissingMask::None(n), &groups);
    size_t per_case = std::max<size_t>(
        1, kCalibrationSamples / data.outage.size());
    size_t gated = 0, total = 0;
    Vector residuals;
    for (const sim::PhasorDataSet* block : data.outage) {
      size_t take = std::min(per_case, block->num_samples());
      for (size_t t = 0; t < take; ++t) {
        auto [vm, va] = block->Sample(t);
        Vector features = FeatureVector(vm, va);
        PW_RETURN_IF_ERROR(
            det.ClusterNormalResidualsInto(features, groups, &residuals));
        ++total;
        for (size_t c = 0; c < num_clusters; ++c) {
          if (residuals[c] > det.gates_[c].in_cluster) {
            ++gated;
            break;
          }
        }
      }
    }
    if (total > 0 && gated < total / 2) {
      PW_LOG(Warning) << "weak gate separation on " << grid.name() << ": only "
                      << gated << "/" << total
                      << " outage calibration samples exceed the gate";
    }
  }
  return det;
}

double OutageDetector::decision_threshold() const {
  if (gates_.empty()) return 0.0;
  double sum = 0.0;
  for (const GateThresholds& g : gates_) sum += g.in_cluster;
  return sum / static_cast<double>(gates_.size());
}

PW_NO_ALLOC void OutageDetector::SelectGroupInto(
    size_t cluster, const sim::MissingMask& mask,
    SelectedGroup* selected) const {
  const ClusterDetectionGroup& group = groups_[cluster];
  // Eq. 10: cluster data incomplete -> use the out-of-cluster members.
  selected->members.clear();
  selected->used_out_of_cluster = false;
  for (size_t node : network_->Cluster(cluster)) {
    if (mask.missing[node]) {
      selected->used_out_of_cluster = true;
      break;
    }
  }
  if (selected->used_out_of_cluster) {
    PW_OBS_COUNTER_INC("detect.groups.out_of_cluster_selected");
  }
  const std::vector<size_t>& preferred =
      selected->used_out_of_cluster ? group.out_of_cluster : group.in_cluster;
  for (size_t node : preferred) {
    if (!mask.missing[node]) selected->members.push_back(node);
  }
  if (selected->members.empty()) {
    // Both alternatives compromised: fall back to the other side, then
    // to any available nodes at all.
    PW_OBS_COUNTER_INC("detect.groups.fallback_alternate_side");
    const std::vector<size_t>& alt =
        selected->used_out_of_cluster ? group.in_cluster
                                      : group.out_of_cluster;
    for (size_t node : alt) {
      if (!mask.missing[node]) selected->members.push_back(node);
    }
  }
  if (selected->members.empty()) {
    PW_OBS_COUNTER_INC("detect.groups.fallback_any_available");
    for (size_t i = 0;
         i < mask.size() &&
         selected->members.size() < kMaxGroupSize;
         ++i) {
      if (!mask.missing[i]) selected->members.push_back(i);
    }
  }
  GroupCoordinatesInto(selected->members, &selected->coords);
}

PW_NO_ALLOC void OutageDetector::GroupCoordinatesInto(
    const std::vector<size_t>& nodes, std::vector<size_t>* coords) const {
  coords->clear();
  const size_t n = grid_->num_buses();
  // Keep sorted order: magnitudes occupy [0, n), angles [n, 2n).
  for (size_t node : nodes) coords->push_back(node);
  for (size_t node : nodes) coords->push_back(n + node);
}

PW_NO_ALLOC void OutageDetector::SelectGroupsInto(
    const sim::MissingMask& mask, std::vector<SelectedGroup>* groups) const {
  groups->resize(network_->num_clusters());
  for (size_t c = 0; c < groups->size(); ++c) {
    SelectGroupInto(c, mask, &(*groups)[c]);
  }
}

PW_NO_ALLOC Result<double> OutageDetector::ClusterNormalResidual(
    size_t cluster, const Vector& features, const SelectedGroup& group) {
  if (group.members.empty()) {
    return Status::DataMissing("no available nodes for cluster " +
                               std::to_string(cluster));
  }
  return engine_.Evaluate(normal_model_, kNormalModelKey, features,
                          group.coords);
}

PW_NO_ALLOC Status OutageDetector::ClusterNormalResidualsInto(
    const Vector& features, const std::vector<SelectedGroup>& groups,
    Vector* residuals) {
  residuals->Assign(groups.size());
  for (size_t c = 0; c < groups.size(); ++c) {
    PW_ASSIGN_OR_RETURN((*residuals)[c],
                        ClusterNormalResidual(c, features, groups[c]));
  }
  return Status::OK();
}

PW_NO_ALLOC Result<double> OutageDetector::RawNodeScore(
    size_t node, const Vector& features, const SelectedGroup& group,
    double cluster_residual) {
  if (group.members.empty()) {
    return Status::DataMissing("no available nodes for node " +
                               std::to_string(node));
  }
  PW_ASSIGN_OR_RETURN(
      double prox_union,
      engine_.Evaluate(node_models_[node].union_model, UnionKey(node),
                       features, group.coords));
  if (!options_.use_scaling) return prox_union;
  PW_ASSIGN_OR_RETURN(
      double prox_intersection,
      engine_.Evaluate(node_models_[node].intersection_model,
                       IntersectionKey(node), features, group.coords));
  // Eq. 11: scale the union proximity by intersection/normal.
  return prox_union * prox_intersection /
         std::max(cluster_residual, kProxFloor);
}

PW_NO_ALLOC Status OutageDetector::NodeScoresInto(
    const Vector& features, const std::vector<SelectedGroup>& groups,
    const Vector& cluster_residuals, Vector* scores) {
  const size_t n = grid_->num_buses();
  scores->Assign(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t cluster = network_->ClusterOf(i);
    const SelectedGroup& group = groups[cluster];
    PW_ASSIGN_OR_RETURN(
        double raw,
        RawNodeScore(i, features, group, cluster_residuals[cluster]));
    const Vector& baseline =
        group.used_out_of_cluster ? node_baseline_out_ : node_baseline_in_;
    (*scores)[i] = raw / baseline[i];
  }
  return Status::OK();
}

/// Per-thread buffers behind Detect. Every member keeps its capacity
/// across calls, so a warmed steady-state detection loop allocates only
/// the vectors that escape in the DetectionResult. Each call overwrites
/// a member before reading it, so nothing carries over between calls,
/// even across detectors of different size or mode.
struct OutageDetector::DetectScratch {
  linalg::Vector features;
  std::vector<SelectedGroup> groups;
  /// Input mask plus the nodes demoted by the bad-data screen. Only
  /// populated (and only read) on samples where the screen fired.
  sim::MissingMask screened_mask;
  linalg::Vector residuals;
  std::vector<size_t> pooled;
  std::vector<size_t> pooled_coords;
  std::vector<size_t> order;
  std::vector<bool> selected;
  /// Class-family residuals over `pooled_coords`: the ratio gate's,
  /// then each peel round's on `peel_features`.
  FamilyResiduals family;
  std::vector<std::pair<double, size_t>> candidates;  // (residual, case)
  /// Multi-line peeling state (max_outage_lines >= 2 only): the sample
  /// with the accepted lines' mean shifts subtracted, and which cases
  /// have been taken.
  linalg::Vector peel_features;
  std::vector<bool> peel_taken;
};

PW_NO_ALLOC const sim::MissingMask* OutageDetector::ScreenBadData(
    const Vector& vm, const Vector& va, const sim::MissingMask& mask,
    DetectScratch& scratch, DetectionResult* result) {
  const size_t n = mask.size();
  bool copied = false;
  for (size_t i = 0; i < n; ++i) {
    if (mask.missing[i]) continue;
    const bool bad = !std::isfinite(vm[i]) || !std::isfinite(va[i]) ||
                     ellipses_[i].QuadraticForm({vm[i], va[i]}) >
                         kScreenThreshold;
    if (!bad) continue;
    if (!copied) {
      scratch.screened_mask.missing.assign(mask.missing.begin(),
                                           mask.missing.end());
      copied = true;
    }
    scratch.screened_mask.missing[i] = true;
    ++result->screened_nodes;
    PW_OBS_COUNTER_INC("faults.screened");
  }
  if (!copied) return &mask;
  return &scratch.screened_mask;
}

PW_NO_ALLOC Result<DetectionResult> OutageDetector::Detect(
    const Vector& vm, const Vector& va, const sim::MissingMask& mask) {
  static thread_local DetectScratch scratch;
  Result<DetectionResult> result = DetectImpl(vm, va, mask, scratch);
  if (!result.ok()) {
    PW_OBS_COUNTER_INC("detect.samples_rejected");
  }
  return result;
}

PW_NO_ALLOC Result<DetectionResult> OutageDetector::DetectImpl(
    const Vector& vm, const Vector& va, const sim::MissingMask& mask,
    DetectScratch& scratch) {
  PW_TRACE_SCOPE("detect.total_us");
  PW_OBS_COUNTER_INC("detect.calls");
  const size_t n = grid_->num_buses();
  if (vm.size() != n || va.size() != n || mask.size() != n) {
    return Status::InvalidArgument("sample size mismatch");
  }

  FeatureVectorInto(vm, va, &scratch.features);
  const Vector& features = scratch.features;
  DetectionResult result;

  // Stage 0: Eq. 4 bad-data screen. Nodes whose
  // measurements are non-finite or grossly outside their normal
  // envelope are demoted to "unavailable", so the group selection below
  // re-selects around them exactly as it does for missing data. The
  // screened values never enter the subspace math: every evaluation
  // downstream restricts to coordinates of the effective mask.
  const sim::MissingMask* effective = nullptr;
  {
    PW_TRACE_SCOPE("detect.stage.screen_us");
    effective = ScreenBadData(vm, va, mask, scratch, &result);
  }

  // Stage 1: pick the detection group for every cluster under the
  // sample's availability mask (Eq. 10).
  {
    PW_TRACE_SCOPE("detect.stage.groups_us");
    SelectGroupsInto(*effective, &scratch.groups);
  }
  const std::vector<SelectedGroup>& groups = scratch.groups;

  // The two gate scores; the decision score is their maximum.
  double cluster_score = 0.0;
  double ratio_score = 0.0;
  {
    PW_TRACE_SCOPE("detect.stage.gate_us");
    // Gate 1: does any cluster's normal-subspace residual exceed its
    // calibrated level? This separates "data looks normal (possibly with
    // gaps)" from "the grid state violates the normal model".
    PW_RETURN_IF_ERROR(
        ClusterNormalResidualsInto(features, groups, &scratch.residuals));
    const Vector& residuals = scratch.residuals;
    for (size_t c = 0; c < groups.size(); ++c) {
      double gate = groups[c].used_out_of_cluster
                        ? gates_[c].out_of_cluster
                        : gates_[c].in_cluster;
      cluster_score =
          std::max(cluster_score, residuals[c] / std::max(gate, kProxFloor));
    }

    // Gate 2 (scale-free): is the sample better explained by some line's
    // outage subspace than by the normal subspace? Uses every available
    // measurement — the group machinery protects the node ranking, but
    // classification should never discard observed data.
    effective->AvailableIndicesInto(&scratch.pooled);
    if (scratch.pooled.empty()) {
      return Status::DataMissing("all measurements missing or screened");
    }
    GroupCoordinatesInto(scratch.pooled, &scratch.pooled_coords);
    // One family evaluation scores the normal class and every case.
    // Every case residual lands in `candidates`, which localization
    // sorts, and the normal residual stays in the scratch as the peel's
    // baseline.
    PW_RETURN_IF_ERROR(engine_.EvaluateFamily(class_family_, kClassFamilyKey,
                                              features, scratch.pooled_coords,
                                              &scratch.family));
    scratch.candidates.clear();
    double best_line_residual = -1.0;
    for (size_t c = 0; c < scratch.family.cases.size(); ++c) {
      const double prox = scratch.family.cases[c];
      scratch.candidates.push_back({prox, c});
      if (best_line_residual < 0.0 || prox < best_line_residual) {
        best_line_residual = prox;
      }
    }
    double ratio =
        best_line_residual / std::max(scratch.family.normal, kProxFloor);
    ratio_score = ratio_gate_ / std::max(ratio, 1e-9);
    result.decision_score = std::max(cluster_score, ratio_score);
  }

  {
    PW_TRACE_SCOPE("detect.stage.proximity_us");
    PW_RETURN_IF_ERROR(NodeScoresInto(features, groups, scratch.residuals,
                                      &result.node_scores));
  }
  if (result.decision_score <= 1.0) {
    result.outage_detected = false;
    return result;  // normal operation: F-hat is empty
  }
  result.outage_detected = true;
  PW_OBS_COUNTER_INC("detect.outages_flagged");
  // Which gate declared: both may fire on one sample.
  if (cluster_score > 1.0) PW_OBS_COUNTER_INC("detect.gate.cluster_fired");
  if (ratio_score > 1.0) PW_OBS_COUNTER_INC("detect.gate.ratio_fired");

  PW_TRACE_SCOPE("detect.stage.localization_us");

  // Sorted node list N_t by scaled proximity, ascending (closest first).
  scratch.order.resize(n);
  std::vector<size_t>& order = scratch.order;
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return result.node_scores[a] < result.node_scores[b];
  });

  // Proximity rule: extend the prefix while nodes stay graph-connected
  // to the selected set and the score trend does not jump.
  scratch.selected.assign(n, false);
  std::vector<bool>& selected = scratch.selected;
  std::vector<size_t>& affected = result.affected_nodes;
  affected.push_back(order[0]);
  selected[order[0]] = true;
  double prev_score = std::max(result.node_scores[order[0]], kProxFloor);
  for (size_t rank = 1;
       rank < n && affected.size() < kMaxAffectedNodes; ++rank) {
    size_t node = order[rank];
    double score = result.node_scores[node];
    if (score > prev_score * kGapFactor) break;  // elbow
    bool adjacent = false;
    for (size_t nb : grid_->Neighbors(node)) {
      if (selected[nb]) {
        adjacent = true;
        break;
      }
    }
    if (!adjacent) break;  // must form a connected sub-component
    selected[node] = true;
    affected.push_back(node);
    prev_score = std::max(score, kProxFloor);
  }

  // A line outage always involves two endpoints: if only one node
  // cleared the rule, pull in its best-scoring neighbor.
  if (affected.size() == 1) {
    size_t seed = affected[0];
    size_t best = n;
    double best_score = 0.0;
    for (size_t nb : grid_->Neighbors(seed)) {
      double s = result.node_scores[nb];
      if (best == n || s < best_score) {
        best = nb;
        best_score = s;
      }
    }
    if (best != n) {
      selected[best] = true;
      affected.push_back(best);
    }
  }

  if (options_.localization == LocalizationMode::kProximityRule) {
    // Paper's pure pipeline: F-hat = lines whose both endpoints joined
    // the affected prefix.
    for (const grid::LineId& line : grid_->lines()) {
      if (selected[line.i] && selected[line.j]) {
        result.lines.push_back(line);
      }
    }
    return result;
  }

  // Line disambiguation: rank the trained line cases by the whitened
  // distance of the sample to each case's class model, as the gate
  // stage evaluated them (all through the same available coordinates,
  // so residuals are comparable). The node-ranking prefix localizes the
  // neighborhood for the operator; F-hat itself comes from the sharper
  // class-model comparison.
  std::vector<std::pair<double, size_t>>& candidates = scratch.candidates;
  std::sort(candidates.begin(), candidates.end());
  if (options_.max_outage_lines >= 2 && !candidates.empty()) {
    // Multi-line identification: composed-pair scoring + greedy residual
    // peeling replace the line-window rule (docs/ROBUSTNESS.md).
    PW_RETURN_IF_ERROR(IdentifyOutageSet(features, scratch, &result));
    return result;
  }
  if (!candidates.empty()) {
    double best = std::max(candidates.front().first, kProxFloor);
    for (const auto& [prox, c] : candidates) {
      if (prox <= best * kLineWindow) {
        result.lines.push_back(case_lines_[c]);
      }
    }
  }
  return result;
}

Status OutageDetector::IdentifyOutageSet(const Vector& features,
                                         DetectScratch& scratch,
                                         DetectionResult* result) {
  PW_TRACE_SCOPE("detect.stage.peel_us");
  const std::vector<std::pair<double, size_t>>& candidates = scratch.candidates;
  const size_t num_cases = case_lines_.size();
  const size_t dim = features.size();
  scratch.peel_taken.assign(num_cases, false);

  // Baseline: the ratio gate's normal-class residual over the pooled
  // coordinates (read before the peel rounds reuse scratch.family).
  const double r0 = std::max(scratch.family.normal, kProxFloor);

  // Subtracts case c's mean shift from peel_features, composed on top
  // of whatever is already peeled.
  const Matrix& shifts = class_family_.shifts();
  auto subtract_shift = [&](size_t c) {
    for (size_t i = 0; i < dim; ++i) scratch.peel_features[i] -= shifts(i, c);
  };
  auto reset_peel = [&] {
    scratch.peel_features.Assign(dim);
    for (size_t i = 0; i < dim; ++i) scratch.peel_features[i] = features[i];
  };

  // Appends case c with a confidence clamped to [0, 1] and forced
  // monotone non-increasing: each later line is conditioned on every
  // earlier one being real, so it can never be more certain.
  auto accept = [&](size_t c, double raw_confidence) {
    double conf = std::min(1.0, std::max(0.0, raw_confidence));
    if (!result->outage_set.empty()) {
      conf = std::min(conf, result->outage_set.back().confidence);
    }
    result->outage_set.push_back({case_lines_[c], conf});
    result->lines.push_back(case_lines_[c]);
    scratch.peel_taken[c] = true;
  };

  // Greedy residual peeling anchored on the proximity winner. The
  // anchor is unconditional — the outage gate already fired, so an
  // identification is always owed, and the anchor is exactly the line a
  // single-line detector would report. Every deeper line c must then
  // clear its calibrated threshold on the normalized residual drop
  //   delta_c = (r_before - r_after) / ||R d_c||^2,
  // which is ~ +1 when the peeled residual really contains c's mean
  // shift and hovers in the spurious-null range otherwise. The argmin
  // over composed residuals is searched over ALL remaining cases: true
  // second lines routinely rank far down the single-line ordering
  // because the anchor's shift dominates their unpeeled residual.
  reset_peel();
  const size_t anchor = candidates.front().second;
  accept(anchor, 1.0 - std::max(candidates.front().first, kProxFloor) / r0);
  subtract_shift(anchor);

  while (result->outage_set.size() < options_.max_outage_lines) {
    // One family evaluation per round: case c's residual on the peeled
    // sample x - sum(d_a) measures the distance to the composed mean
    // mu_n + sum(d_a) + d_c — the linearized multi-outage subspace.
    PW_RETURN_IF_ERROR(engine_.EvaluateFamily(
        class_family_, kClassFamilyKey, scratch.peel_features,
        scratch.pooled_coords, &scratch.family));
    const double r_base = std::max(scratch.family.normal, kProxFloor);
    double best = -1.0;
    size_t best_case = num_cases;
    for (size_t c = 0; c < num_cases; ++c) {
      if (scratch.peel_taken[c]) continue;
      const double r = scratch.family.cases[c];
      if (best < 0.0 || r < best) {
        best = r;
        best_case = c;
      }
    }
    if (best_case == num_cases) break;  // every case taken
    // The drop is normalized over the SAME pooled coordinates as the
    // residuals: under missing data both shrink together, keeping the
    // delta statistic on the scale the thresholds were calibrated at.
    const double drop = scratch.family.drops[best_case];
    if (drop <= peel_tau_[best_case * num_cases + anchor]) {
      break;  // stop rule: the best drop looks like a spurious null
    }
    PW_OBS_COUNTER_INC("detect.multi.peel_accepted");
    accept(best_case, 1.0 - best / r_base);
    subtract_shift(best_case);
  }
  PW_OBS_QUANTILE_RECORD("detect.multi.set_size", result->outage_set.size());
  return Status::OK();
}

}  // namespace phasorwatch::detect
