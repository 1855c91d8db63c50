#ifndef PHASORWATCH_DETECT_DETECTOR_H_
#define PHASORWATCH_DETECT_DETECTOR_H_

#include <vector>

#include <iosfwd>

#include "common/check.h"
#include "common/status.h"
#include "detect/capabilities.h"
#include "detect/ellipse.h"
#include "detect/groups.h"
#include "detect/proximity.h"
#include "detect/subspace_model.h"
#include "grid/grid.h"
#include "linalg/matrix.h"
#include "sim/measurement.h"
#include "sim/missing_data.h"
#include "sim/pmu_network.h"

namespace phasorwatch::detect {

/// Training corpus: normal-operation measurements plus one measurement
/// block per valid line-outage case (aligned with `case_lines`).
struct TrainingData {
  const sim::PhasorDataSet* normal = nullptr;
  std::vector<grid::LineId> case_lines;
  std::vector<const sim::PhasorDataSet*> outage;
};

/// How the candidate line set F-hat is derived once an outage is gated.
enum class LocalizationMode {
  /// Whitened per-line class models over all available measurements
  /// (default; sharpest localization).
  kClassModel,
  /// The paper's pure pipeline: scaled node proximities through the
  /// detection groups, sorted, proximity rule, F-hat = lines whose both
  /// endpoints join the affected prefix. Detection-group quality
  /// directly shows here (the Fig. 4 ablation).
  kProximityRule,
};

/// Screen level of the Eq. 4 bad-data screen (docs/ROBUSTNESS.md):
/// before detection, an available node whose phasor point carries a
/// non-finite value or lies beyond this multiple of its normal-operation
/// ellipse bound is gross bad data in the Li et al. (arXiv:1502.05789)
/// sense and is demoted to "unavailable", so the Eq. 10 group selection
/// re-selects around it. Genuine outages move a node's phasors outside
/// its ellipse — that excursion is exactly what detection keys on — so
/// the screen must sit far above it. Measured on the IEEE 14/30/57/118
/// evaluation systems: genuine quadratic forms stay below ~8.5e2
/// (normal data below ~2), while unit-scale gross errors (±0.5 pu,
/// ±1 rad) land at 1.7e3+ except on IEEE-57, whose wide normal envelope
/// puts some spikes lower.
inline constexpr double kScreenThreshold = 1e3;

/// Line disambiguation (single-line localization): candidate lines whose
/// class-model residual is within this factor of the best line's are
/// reported in F-hat.
inline constexpr double kLineWindow = 1.5;

/// End-to-end tuning for the subspace outage detector: only the values
/// callers vary. The rest of the paper's fixed pipeline is constants
/// here (kScreenThreshold, kLineWindow), in groups.h (kMaxGroupSize) and
/// in detector.cc and groups.cc.
struct DetectorOptions {
  SubspaceModelOptions subspace;
  DetectionGroupOptions groups;
  LocalizationMode localization = LocalizationMode::kClassModel;
  /// Apply the proximity scaling of Eq. 11 (ablation switch).
  bool use_scaling = true;
  /// Multi-line identification (docs/ROBUSTNESS.md): upper bound on the
  /// outage-set size recovered by greedy residual peeling. The default
  /// of 1 keeps the legacy single-line pipeline — training, detection,
  /// and serialization are bit-identical to a pre-multi-line detector,
  /// and DetectionResult::outage_set stays empty (no allocation on the
  /// hot path). Values >= 2 enable the peeling layer, whose acceptance
  /// thresholds Train calibrates (OutageDetector::peel_threshold).
  size_t max_outage_lines = 1;
  /// Worker threads for the per-line subspace training fan-out: 0 = one
  /// per hardware core, 1 = serial. Overridable via PW_THREADS (see
  /// common/thread_pool.h). Trained models are bit-identical at every
  /// setting: each line's model is learned independently.
  size_t parallelism = 0;
};

/// Output of one detection query.
struct DetectionResult {
  /// One identified member of a multi-line outage set.
  struct OutageHypothesis {
    grid::LineId line;
    /// 1 - (class residual / peeled normal residual), clamped to
    /// [0, 1] and monotone non-increasing across peels: each later
    /// line is conditioned on every earlier one being real.
    double confidence = 0.0;
  };

  bool outage_detected = false;
  std::vector<grid::LineId> lines;      ///< the candidate set F-hat
  std::vector<size_t> affected_nodes;   ///< prefix of the sorted node list
  linalg::Vector node_scores;           ///< scaled proximities (Eq. 11)
  /// The larger of the two gate scores; > 1 means an outage was
  /// declared. The cluster gate's score is the max over clusters of
  /// (normal-subspace residual / calibrated gate); the ratio gate's is
  /// (calibrated ratio gate / (best line-case residual / normal
  /// residual)), both residuals over every available coordinate
  /// (docs/MATH.md §5).
  double decision_score = 0.0;
  /// Available nodes demoted to "unavailable" by the bad-data screen
  /// (kScreenThreshold) before detection ran.
  size_t screened_nodes = 0;
  /// Identified outage set in peeling order, with per-line confidence.
  /// Empty unless DetectorOptions::max_outage_lines >= 2; when
  /// populated, `lines` mirrors the same lines in the same order.
  std::vector<OutageHypothesis> outage_set;
};

/// The paper's robust subspace outage detector (Sec. IV).
///
/// Train() learns, from normal and per-line-outage data: the normal
/// subspace model, per-line outage models, per-node union/intersection
/// subspaces (Eq. 3), per-node normal-operation ellipses (Eq. 4),
/// node detection capabilities (Eqs. 5-7), and per-cluster detection
/// groups (Eq. 8). Detect() evaluates scaled subspace proximities
/// (Eqs. 9-11) through the groups selected by data availability
/// (Eq. 10), applies the proximity rule over the grid topology, and
/// returns the candidate outage line set.
///
/// Thread safety: a trained detector is logically immutable, and
/// Detect() may be called concurrently from multiple threads (its only
/// mutable state is the internal ProximityEngine regressor cache, which
/// is internally synchronized). Train()/Load() themselves must finish
/// before the detector is shared.
class OutageDetector {
 public:
  PW_NODISCARD static Result<OutageDetector> Train(
      const grid::Grid& grid, const sim::PmuNetwork& network,
      const TrainingData& data, const DetectorOptions& options = {});

  /// Classifies one sample. `mask` marks nodes whose measurements are
  /// missing; their entries in vm/va are ignored. The working buffers
  /// live in one per-thread scratch shared by every detector on the
  /// calling thread; each call rewrites them before reading, so results
  /// never depend on earlier calls or on which detector ran last.
  PW_NO_ALLOC PW_NODISCARD Result<DetectionResult> Detect(
      const linalg::Vector& vm, const linalg::Vector& va,
      const sim::MissingMask& mask);

  /// Convenience for complete samples.
  PW_NODISCARD Result<DetectionResult> Detect(const linalg::Vector& vm,
                                              const linalg::Vector& va) {
    return Detect(vm, va, sim::MissingMask::None(grid_->num_buses()));
  }

  // --- introspection for tests, ablations, and figures ---
  /// The grid this detector was trained on (for naming lines in logs).
  const grid::Grid& grid() const { return *grid_; }
  const CapabilityTable& capabilities() const { return capabilities_; }
  const std::vector<ClusterDetectionGroup>& groups() const { return groups_; }
  const SubspaceModel& normal_model() const { return normal_model_; }
  const NodeSubspaces& node_subspaces(size_t node) const {
    return node_models_[node];
  }
  const std::vector<EllipseModel>& ellipses() const { return ellipses_; }
  /// The trained line cases, in class-family order.
  const std::vector<grid::LineId>& case_lines() const { return case_lines_; }
  /// The whitened classification models: the normal class (the base)
  /// and one mean per line case.
  const ClassFamily& class_family() const { return class_family_; }
  /// Calibrated peel threshold tau(c | anchor) (DetectorOptions::
  /// max_outage_lines >= 2 only).
  double peel_threshold(size_t c, size_t anchor) const {
    return peel_tau_[c * case_lines_.size() + anchor];
  }
  /// Mean calibrated gate level over clusters (diagnostic).
  double decision_threshold() const;
  size_t proximity_cache_size() const { return engine_.cache_size(); }
  const ProximityEngine& proximity_engine() const { return engine_; }

  /// An untrained detector; populate via Train().
  OutageDetector() = default;

  // --- model persistence (train offline, load at the control center) ---

  /// Serializes the trained model (not the grid or PMU network — those
  /// are configuration the deployment already has; Load verifies that
  /// the provided ones match what the model was trained on).
  PW_NODISCARD Status Save(std::ostream& out) const;
  PW_NODISCARD Status SaveToFile(const std::string& path) const;

  /// Restores a trained detector. `grid` and `network` must match the
  /// training configuration (checked by fingerprint).
  PW_NODISCARD static Result<OutageDetector> Load(
      std::istream& in, const grid::Grid& grid,
      const sim::PmuNetwork& network);
  PW_NODISCARD static Result<OutageDetector> LoadFromFile(
      const std::string& path, const grid::Grid& grid,
      const sim::PmuNetwork& network);

 private:
  /// Reusable buffers for the Detect hot path (detector.cc); Detect
  /// keeps one per thread.
  struct DetectScratch;

  /// One cluster's detection group under a mask (Eq. 10), plus which
  /// variant was chosen (true = the cluster itself had missing data, so
  /// the out-of-cluster members were used).
  struct SelectedGroup {
    std::vector<size_t> members;
    /// Feature-coordinate expansion of `members` (GroupCoordinatesInto),
    /// computed once per selection instead of per proximity query.
    std::vector<size_t> coords;
    bool used_out_of_cluster = false;
  };

  PW_NO_ALLOC void SelectGroupInto(size_t cluster, const sim::MissingMask& mask,
                                   SelectedGroup* selected) const;

  /// Groups for every cluster under this mask, into reused storage.
  PW_NO_ALLOC void SelectGroupsInto(const sim::MissingMask& mask,
                                    std::vector<SelectedGroup>* groups) const;

  /// Scaled proximity score of one node (Eqs. 9-11) through its
  /// cluster's group, before baseline normalization. `cluster_residual`
  /// is ClusterNormalResidual's value for the same features and group:
  /// it is the Eq. 11 normal proximity, so no node re-evaluates its
  /// cluster's normal residual.
  PW_NO_ALLOC PW_NODISCARD Result<double> RawNodeScore(
      size_t node, const linalg::Vector& features, const SelectedGroup& group,
      double cluster_residual);

  /// Every node's RawNodeScore divided by its normal-data baseline
  /// (making scores comparable across clusters of different group
  /// sizes). `cluster_residuals` are ClusterNormalResidualsInto's values
  /// for the same features and groups.
  PW_NO_ALLOC PW_NODISCARD Status NodeScoresInto(
      const linalg::Vector& features, const std::vector<SelectedGroup>& groups,
      const linalg::Vector& cluster_residuals, linalg::Vector* scores);

  /// Normal-subspace residual per cluster through its group (the gate
  /// statistic).
  PW_NO_ALLOC PW_NODISCARD Status ClusterNormalResidualsInto(
      const linalg::Vector& features, const std::vector<SelectedGroup>& groups,
      linalg::Vector* residuals);

  /// ClusterNormalResidualsInto's residual of one cluster.
  PW_NO_ALLOC PW_NODISCARD Result<double> ClusterNormalResidual(
      size_t cluster, const linalg::Vector& features,
      const SelectedGroup& group);

  /// Eq. 4 bad-data screen: available nodes carrying non-finite values
  /// or points beyond kScreenThreshold times their normal-operation
  /// ellipse are demoted into `scratch.screened_mask`, and the mask
  /// detection should run under is returned (the input mask when
  /// nothing was screened).
  PW_NO_ALLOC const sim::MissingMask* ScreenBadData(
      const linalg::Vector& vm, const linalg::Vector& va,
      const sim::MissingMask& mask, DetectScratch& scratch,
      DetectionResult* result);

  /// Body of Detect. Reuses `scratch` buffers (allocation-free once
  /// warmed, apart from the vectors that escape in the result); every
  /// buffer is rewritten before it is read, so no state carries from
  /// one call to the next.
  PW_NO_ALLOC PW_NODISCARD Result<DetectionResult> DetectImpl(
      const linalg::Vector& vm, const linalg::Vector& va,
      const sim::MissingMask& mask, DetectScratch& scratch);

  /// Multi-line identification (max_outage_lines >= 2): greedy residual
  /// peeling anchored on the top-ranked candidate, each further line
  /// gated by its calibrated per-case threshold (peel_tau_), up to the
  /// budget, into result->outage_set (and a mirroring result->lines).
  /// Requires scratch.candidates sorted and scratch.pooled_coords
  /// valid (the localization stage state).
  PW_NODISCARD Status IdentifyOutageSet(const linalg::Vector& features,
                                        DetectScratch& scratch,
                                        DetectionResult* result);

  const grid::Grid* grid_ = nullptr;          // not owned
  const sim::PmuNetwork* network_ = nullptr;  // not owned
  DetectorOptions options_;

  SubspaceModel normal_model_;
  /// Classification models for line disambiguation: the whitened
  /// classification twin of the normal model (the family base) and, per
  /// line case, the same (well-estimated) coefficient matrix paired with
  /// the case's mean. Residuals annihilate shared load modes while
  /// keeping the outage mean shift visible, which is far more robust
  /// on small training sets than the per-line constraint bases. Every
  /// class residual comes from ProximityEngine::EvaluateFamily.
  ClassFamily class_family_;
  std::vector<grid::LineId> case_lines_;
  std::vector<NodeSubspaces> node_models_;       // per node
  std::vector<EllipseModel> ellipses_;           // per node
  CapabilityTable capabilities_;
  std::vector<ClusterDetectionGroup> groups_;    // per cluster

  /// Calibrated gate levels per cluster, one per group variant.
  struct GateThresholds {
    double in_cluster = 1.0;
    double out_of_cluster = 1.0;
  };
  std::vector<GateThresholds> gates_;
  /// Calibrated ratio gate: the fixed level, pulled down when normal
  /// calibration data approaches a line model (detector.cc).
  double ratio_gate_ = 0.5;
  /// Peeling acceptance thresholds, conditioned on the anchor: a
  /// num_cases x num_cases row-major matrix (empty unless
  /// max_outage_lines >= 2) where entry [c * num_cases + t] gates case
  /// c joining an outage set anchored on case t (the maximum of the
  /// spurious-drop null cell plus a fixed margin, detector.cc).
  std::vector<double> peel_tau_;

  /// Maps a node-index group to its feature coordinates: every node i
  /// contributes its magnitude i and its angle N+i.
  PW_NO_ALLOC void GroupCoordinatesInto(const std::vector<size_t>& nodes,
                                        std::vector<size_t>* coords) const;

  /// Median scaled proximity of each node over normal calibration
  /// samples, per group variant. Detection-group compositions differ
  /// across clusters, so raw proximities are not comparable between
  /// nodes; scores are reported relative to these baselines.
  linalg::Vector node_baseline_in_;
  linalg::Vector node_baseline_out_;

  ProximityEngine engine_;
};

}  // namespace phasorwatch::detect

#endif  // PHASORWATCH_DETECT_DETECTOR_H_
