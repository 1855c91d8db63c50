// Model persistence for the trained outage detector. The file carries
// what Detect reads (subspace models, class family, ellipses, groups,
// gates, baselines), the capability table behind the groups, and a
// fingerprint of the grid and PMU network it was trained on; it does
// NOT carry the grid itself.

#include <cmath>
#include <fstream>

#include "common/serialize.h"
#include "common/status.h"
#include "detect/detector.h"

namespace phasorwatch::detect {
namespace {

// Bumped whenever the layout changes; older files are rejected as
// unreadable rather than misparsed. PWDET03 added the bad-data
// screening options; PWDET04 the multi-line identification options and
// calibrated per-case peel thresholds; PWDET05 keeps only what Detect
// reads: a model record is its mean and constraint basis (no spectrum,
// no full SVD basis), the class family is stored once as its base plus
// the case means, and the per-line models are gone. PWDET06 drops the
// detector settings no caller varies (the proximity-rule elbow and cap,
// the screen switch and level, the peel quantile and margin): they are
// constants of the code, not of the model. PWDET07 drops the three
// remaining settings no caller varies, the phasor channel, the line
// window and the group cap (24 bytes after the fingerprint): the
// features are always the stacked (vm; va) 2N vector, and the window
// and cap are kLineWindow and kMaxGroupSize.
constexpr uint64_t kMagic = 0x5057444554303700ull;  // "PWDET07\0"

using linalg::Matrix;
using linalg::Subspace;
using linalg::Vector;

void WriteVector(BinaryWriter& w, const Vector& v) {
  w.WriteDoubleVector(v.values());
}

// Sizes are checked against the caller's expectation before anything
// is allocated, so a corrupt length prefix can neither request an
// outsized buffer nor leave a table misshapen for Detect to index.
Result<Vector> ReadVector(BinaryReader& r, size_t size) {
  PW_ASSIGN_OR_RETURN(std::vector<double> values, r.ReadDoubleVector(size));
  if (values.size() != size) {
    return Status::InvalidArgument("vector size does not match the model");
  }
  return Vector(std::move(values));
}

void WriteMatrix(BinaryWriter& w, const Matrix& m) {
  w.WriteU64(m.rows());
  w.WriteU64(m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) w.WriteDouble(m(i, j));
  }
}

Result<Matrix> ReadMatrix(BinaryReader& r, size_t rows, size_t max_cols) {
  PW_ASSIGN_OR_RETURN(uint64_t stored_rows, r.ReadU64());
  PW_ASSIGN_OR_RETURN(uint64_t cols, r.ReadU64());
  if (stored_rows != rows || cols > max_cols) {
    return Status::InvalidArgument("matrix shape does not match the model");
  }
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      PW_ASSIGN_OR_RETURN(m(i, j), r.ReadDouble());
    }
  }
  return m;
}

// A model record: the mean and the constraint basis, nothing else
// Detect reads.
void WriteModel(BinaryWriter& w, const SubspaceModel& model) {
  WriteVector(w, model.mean);
  WriteMatrix(w, model.constraints.basis());
}

// `dim` is the feature dimension 2N; a basis never has more columns
// than its ambient dimension.
Result<SubspaceModel> ReadModel(BinaryReader& r, size_t dim) {
  SubspaceModel model;
  PW_ASSIGN_OR_RETURN(model.mean, ReadVector(r, dim));
  PW_ASSIGN_OR_RETURN(Matrix basis, ReadMatrix(r, dim, dim));
  model.constraints = Subspace::FromOrthonormal(std::move(basis));
  return model;
}

// A fingerprint of the training configuration: detects loading a model
// against the wrong grid or PMU clustering before anything misbehaves.
uint64_t Fingerprint(const grid::Grid& grid, const sim::PmuNetwork& network) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull;
    h *= 1099511628211ull;
  };
  mix(grid.num_buses());
  mix(grid.num_lines());
  for (const grid::LineId& line : grid.lines()) {
    mix(line.i);
    mix(line.j);
  }
  mix(network.num_clusters());
  for (size_t i = 0; i < network.num_nodes(); ++i) {
    mix(network.ClusterOf(i));
  }
  return h;
}

}  // namespace

Status OutageDetector::Save(std::ostream& out) const {
  if (grid_ == nullptr) {
    return Status::FailedPrecondition("cannot save an untrained detector");
  }
  BinaryWriter w(out);
  w.WriteU64(kMagic);
  w.WriteU64(Fingerprint(*grid_, *network_));

  // Options that affect inference.
  w.WriteU64(static_cast<uint64_t>(options_.localization));
  w.WriteBool(options_.use_scaling);
  w.WriteU64(options_.max_outage_lines);

  // Cases.
  w.WriteU64(case_lines_.size());
  for (const grid::LineId& line : case_lines_) {
    w.WriteU64(line.i);
    w.WriteU64(line.j);
  }

  // Models. The class family is its base record followed by the case
  // means; the cases share the base's coefficients (docs/MATH.md §4).
  WriteModel(w, normal_model_);
  WriteModel(w, class_family_.base());
  w.WriteU64(class_family_.num_cases());
  for (size_t c = 0; c < class_family_.num_cases(); ++c) {
    WriteVector(w, class_family_.case_mean(c));
  }
  w.WriteU64(node_models_.size());
  for (const NodeSubspaces& node : node_models_) {
    WriteModel(w, node.union_model);
    WriteModel(w, node.intersection_model);
  }

  // Ellipses.
  w.WriteU64(ellipses_.size());
  for (const EllipseModel& e : ellipses_) {
    w.WriteDouble(e.center().vm);
    w.WriteDouble(e.center().va);
    w.WriteDouble(e.a11());
    w.WriteDouble(e.a12());
    w.WriteDouble(e.a22());
  }

  // Capabilities.
  w.WriteU64(capabilities_.PerCaseRows().size());
  for (const auto& row : capabilities_.PerCaseRows()) {
    w.WriteDoubleVector(row);
  }
  WriteMatrix(w, capabilities_.NodeLevel());

  // Groups, gates, baselines.
  w.WriteU64(groups_.size());
  for (const ClusterDetectionGroup& g : groups_) {
    w.WriteSizeVector(g.in_cluster);
    w.WriteSizeVector(g.out_of_cluster);
  }
  w.WriteU64(gates_.size());
  for (const GateThresholds& g : gates_) {
    w.WriteDouble(g.in_cluster);
    w.WriteDouble(g.out_of_cluster);
  }
  w.WriteDouble(ratio_gate_);
  w.WriteDoubleVector(peel_tau_);
  WriteVector(w, node_baseline_in_);
  WriteVector(w, node_baseline_out_);

  if (!w.ok()) {
    return Status::Internal("stream write failed while saving detector");
  }
  return Status::OK();
}

Status OutageDetector::SaveToFile(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  return Save(file);
}

Result<OutageDetector> OutageDetector::Load(std::istream& in,
                                            const grid::Grid& grid,
                                            const sim::PmuNetwork& network) {
  BinaryReader r(in);
  PW_ASSIGN_OR_RETURN(uint64_t magic, r.ReadU64());
  if (magic != kMagic) {
    return Status::InvalidArgument("not a phasorwatch detector model file");
  }
  PW_ASSIGN_OR_RETURN(uint64_t fingerprint, r.ReadU64());
  if (fingerprint != Fingerprint(grid, network)) {
    return Status::FailedPrecondition(
        "model was trained on a different grid or PMU clustering");
  }

  OutageDetector det;
  det.grid_ = &grid;
  det.network_ = &network;

  PW_ASSIGN_OR_RETURN(uint64_t localization, r.ReadU64());
  if (localization > static_cast<uint64_t>(LocalizationMode::kProximityRule)) {
    return Status::InvalidArgument("corrupt localization value");
  }
  det.options_.localization = static_cast<LocalizationMode>(localization);
  PW_ASSIGN_OR_RETURN(det.options_.use_scaling, r.ReadBool());
  PW_ASSIGN_OR_RETURN(uint64_t max_outage_lines, r.ReadU64());
  if (max_outage_lines == 0 || max_outage_lines > grid.num_lines()) {
    return Status::InvalidArgument("corrupt max outage lines");
  }
  det.options_.max_outage_lines = static_cast<size_t>(max_outage_lines);

  PW_ASSIGN_OR_RETURN(uint64_t num_cases, r.ReadU64());
  if (num_cases > grid.num_lines()) {
    return Status::InvalidArgument("more cases than grid lines");
  }
  det.case_lines_.reserve(num_cases);
  for (uint64_t c = 0; c < num_cases; ++c) {
    PW_ASSIGN_OR_RETURN(uint64_t i, r.ReadU64());
    PW_ASSIGN_OR_RETURN(uint64_t j, r.ReadU64());
    if (i >= grid.num_buses() || j >= grid.num_buses()) {
      return Status::InvalidArgument("case line references unknown bus");
    }
    det.case_lines_.push_back(grid::LineId(i, j));
  }

  // Every model record lives in the 2N feature space.
  const size_t n = grid.num_buses();
  const size_t dim = 2 * n;
  PW_ASSIGN_OR_RETURN(det.normal_model_, ReadModel(r, dim));
  PW_ASSIGN_OR_RETURN(SubspaceModel class_base, ReadModel(r, dim));
  if (class_base.constraints.basis().cols() == 0) {
    return Status::InvalidArgument("class model shape is corrupt");
  }
  PW_ASSIGN_OR_RETURN(uint64_t num_case_means, r.ReadU64());
  if (num_case_means != num_cases) {
    return Status::InvalidArgument("class case count mismatch");
  }
  // The family rebuilds its shifts and complete-data energies from the
  // case means.
  std::vector<Vector> case_means;
  case_means.reserve(num_case_means);
  for (uint64_t c = 0; c < num_case_means; ++c) {
    PW_ASSIGN_OR_RETURN(Vector mean, ReadVector(r, dim));
    case_means.push_back(std::move(mean));
  }
  det.class_family_ =
      ClassFamily(std::move(class_base), std::move(case_means));
  PW_ASSIGN_OR_RETURN(uint64_t num_nodes, r.ReadU64());
  if (num_nodes != n) {
    return Status::InvalidArgument("node model count mismatch");
  }
  det.node_models_.resize(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    PW_ASSIGN_OR_RETURN(det.node_models_[i].union_model, ReadModel(r, dim));
    PW_ASSIGN_OR_RETURN(det.node_models_[i].intersection_model,
                        ReadModel(r, dim));
  }

  PW_ASSIGN_OR_RETURN(uint64_t num_ellipses, r.ReadU64());
  if (num_ellipses != n) {
    return Status::InvalidArgument("ellipse count mismatch");
  }
  det.ellipses_.reserve(num_ellipses);
  for (uint64_t i = 0; i < num_ellipses; ++i) {
    PhasorPoint center;
    PW_ASSIGN_OR_RETURN(center.vm, r.ReadDouble());
    PW_ASSIGN_OR_RETURN(center.va, r.ReadDouble());
    PW_ASSIGN_OR_RETURN(double a11, r.ReadDouble());
    PW_ASSIGN_OR_RETURN(double a12, r.ReadDouble());
    PW_ASSIGN_OR_RETURN(double a22, r.ReadDouble());
    det.ellipses_.push_back(
        EllipseModel::FromParameters(center, a11, a12, a22));
  }

  PW_ASSIGN_OR_RETURN(uint64_t num_capability_rows, r.ReadU64());
  if (num_capability_rows != num_cases) {
    return Status::InvalidArgument("capability row count mismatch");
  }
  std::vector<std::vector<double>> per_case(num_capability_rows);
  for (uint64_t c = 0; c < num_capability_rows; ++c) {
    PW_ASSIGN_OR_RETURN(per_case[c], r.ReadDoubleVector(n));
    if (per_case[c].size() != n) {
      return Status::InvalidArgument("capability row size mismatch");
    }
  }
  PW_ASSIGN_OR_RETURN(Matrix node_level, ReadMatrix(r, n, n));
  if (node_level.cols() != n) {
    return Status::InvalidArgument("capability table shape mismatch");
  }
  det.capabilities_ =
      CapabilityTable::FromData(std::move(per_case), std::move(node_level));

  PW_ASSIGN_OR_RETURN(uint64_t num_groups, r.ReadU64());
  if (num_groups != network.num_clusters()) {
    return Status::InvalidArgument("group count mismatch");
  }
  det.groups_.resize(num_groups);
  for (uint64_t c = 0; c < num_groups; ++c) {
    PW_ASSIGN_OR_RETURN(det.groups_[c].in_cluster, r.ReadSizeVector(n));
    PW_ASSIGN_OR_RETURN(det.groups_[c].out_of_cluster, r.ReadSizeVector(n));
    // Group members index into per-node tables at detection time, so a
    // corrupt index must be caught here, not by a crash in Detect.
    for (const auto* members :
         {&det.groups_[c].in_cluster, &det.groups_[c].out_of_cluster}) {
      for (size_t m : *members) {
        if (m >= n) {
          return Status::InvalidArgument("group member references unknown bus");
        }
      }
    }
  }
  PW_ASSIGN_OR_RETURN(uint64_t num_gates, r.ReadU64());
  if (num_gates != network.num_clusters()) {
    return Status::InvalidArgument("gate count mismatch");
  }
  det.gates_.resize(num_gates);
  for (uint64_t c = 0; c < num_gates; ++c) {
    PW_ASSIGN_OR_RETURN(det.gates_[c].in_cluster, r.ReadDouble());
    PW_ASSIGN_OR_RETURN(det.gates_[c].out_of_cluster, r.ReadDouble());
  }
  PW_ASSIGN_OR_RETURN(det.ratio_gate_, r.ReadDouble());
  const bool multi = det.options_.max_outage_lines >= 2;
  const size_t num_tau = multi ? num_cases * num_cases : 0;
  PW_ASSIGN_OR_RETURN(det.peel_tau_, r.ReadDoubleVector(num_tau));
  if (det.peel_tau_.size() != num_tau) {
    return Status::InvalidArgument("peel calibration size mismatch");
  }
  for (double tau : det.peel_tau_) {
    if (std::isnan(tau)) {
      return Status::InvalidArgument("corrupt peel threshold");
    }
  }
  PW_ASSIGN_OR_RETURN(det.node_baseline_in_, ReadVector(r, n));
  PW_ASSIGN_OR_RETURN(det.node_baseline_out_, ReadVector(r, n));
  return det;
}

Result<OutageDetector> OutageDetector::LoadFromFile(
    const std::string& path, const grid::Grid& grid,
    const sim::PmuNetwork& network) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open model file " + path);
  }
  return Load(file, grid, network);
}

}  // namespace phasorwatch::detect
