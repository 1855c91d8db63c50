// Model persistence for the trained outage detector. The file carries
// every learned artifact (subspace models, ellipses, capabilities,
// groups, gates, baselines) plus a fingerprint of the grid and PMU
// network it was trained on; it does NOT carry the grid itself.

#include <cmath>
#include <fstream>

#include "common/serialize.h"
#include "common/status.h"
#include "detect/detector.h"

namespace phasorwatch::detect {
namespace {

// Bumped whenever the layout changes (PWDET03 added the bad-data
// screening options; PWDET04 the multi-line identification options and
// calibrated per-case peel thresholds); older files are rejected as
// unreadable rather than misparsed.
constexpr uint64_t kMagic = 0x5057444554303400ull;  // "PWDET04\0"

using linalg::Matrix;
using linalg::Subspace;
using linalg::Vector;

void WriteVector(BinaryWriter& w, const Vector& v) {
  w.WriteDoubleVector(v.values());
}

Result<Vector> ReadVector(BinaryReader& r) {
  PW_ASSIGN_OR_RETURN(std::vector<double> values, r.ReadDoubleVector());
  return Vector(std::move(values));
}

void WriteMatrix(BinaryWriter& w, const Matrix& m) {
  w.WriteU64(m.rows());
  w.WriteU64(m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) w.WriteDouble(m(i, j));
  }
}

Result<Matrix> ReadMatrix(BinaryReader& r) {
  PW_ASSIGN_OR_RETURN(uint64_t rows, r.ReadU64());
  PW_ASSIGN_OR_RETURN(uint64_t cols, r.ReadU64());
  if (rows > (1u << 20) || cols > (1u << 20) || rows * cols > (1u << 28)) {
    return Status::InvalidArgument("matrix dimensions exceed limits");
  }
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      PW_ASSIGN_OR_RETURN(m(i, j), r.ReadDouble());
    }
  }
  return m;
}

void WriteModel(BinaryWriter& w, const SubspaceModel& model) {
  WriteVector(w, model.mean);
  WriteMatrix(w, model.constraints.basis());
  WriteVector(w, model.singular_values);
  WriteMatrix(w, model.full_basis);
}

// A line case's class model is the family base with the case's mean
// (docs/MATH.md §4); it is stored as a full model so the layout stays
// PWDET04.
void WriteClassModel(BinaryWriter& w, const SubspaceModel& base,
                     const Vector& case_mean) {
  WriteVector(w, case_mean);
  WriteMatrix(w, base.constraints.basis());
  WriteVector(w, base.singular_values);
  WriteMatrix(w, base.full_basis);
}

bool SameDoubles(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != b(i, j)) return false;
    }
  }
  return true;
}

Result<SubspaceModel> ReadModel(BinaryReader& r) {
  SubspaceModel model;
  PW_ASSIGN_OR_RETURN(model.mean, ReadVector(r));
  PW_ASSIGN_OR_RETURN(Matrix basis, ReadMatrix(r));
  model.constraints = Subspace::FromOrthonormal(std::move(basis));
  PW_ASSIGN_OR_RETURN(model.singular_values, ReadVector(r));
  PW_ASSIGN_OR_RETURN(model.full_basis, ReadMatrix(r));
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
  w.WriteU64(static_cast<uint64_t>(options_.subspace.channel));
  w.WriteU64(static_cast<uint64_t>(options_.localization));
  w.WriteBool(options_.use_scaling);
  w.WriteDouble(options_.gap_factor);
  w.WriteU64(options_.max_affected_nodes);
  w.WriteDouble(options_.line_window);
  w.WriteU64(options_.groups.max_group_size);
  w.WriteBool(options_.screen_bad_data);
  w.WriteDouble(options_.screen_threshold);
  w.WriteU64(options_.max_outage_lines);
  w.WriteDouble(options_.peel_null_quantile);
  w.WriteDouble(options_.peel_margin);

  // Cases.
  w.WriteU64(case_lines_.size());
  for (const grid::LineId& line : case_lines_) {
    w.WriteU64(line.i);
    w.WriteU64(line.j);
  }

  // Models.
  WriteModel(w, normal_model_);
  const SubspaceModel& class_base = class_family_.base();
  WriteModel(w, class_base);
  w.WriteU64(line_models_.size());
  for (const SubspaceModel& m : line_models_) WriteModel(w, m);
  w.WriteU64(class_family_.num_cases());
  for (size_t c = 0; c < class_family_.num_cases(); ++c) {
    WriteClassModel(w, class_base, class_family_.case_mean(c));
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

  PW_ASSIGN_OR_RETURN(uint64_t channel, r.ReadU64());
  if (channel > static_cast<uint64_t>(PhasorChannel::kBoth)) {
    return Status::InvalidArgument("corrupt channel value");
  }
  det.options_.subspace.channel = static_cast<PhasorChannel>(channel);
  PW_ASSIGN_OR_RETURN(uint64_t localization, r.ReadU64());
  if (localization > static_cast<uint64_t>(LocalizationMode::kProximityRule)) {
    return Status::InvalidArgument("corrupt localization value");
  }
  det.options_.localization = static_cast<LocalizationMode>(localization);
  PW_ASSIGN_OR_RETURN(det.options_.use_scaling, r.ReadBool());
  PW_ASSIGN_OR_RETURN(det.options_.gap_factor, r.ReadDouble());
  PW_ASSIGN_OR_RETURN(uint64_t max_affected, r.ReadU64());
  det.options_.max_affected_nodes = static_cast<size_t>(max_affected);
  PW_ASSIGN_OR_RETURN(det.options_.line_window, r.ReadDouble());
  PW_ASSIGN_OR_RETURN(uint64_t max_group, r.ReadU64());
  det.options_.groups.max_group_size = static_cast<size_t>(max_group);
  PW_ASSIGN_OR_RETURN(det.options_.screen_bad_data, r.ReadBool());
  PW_ASSIGN_OR_RETURN(det.options_.screen_threshold, r.ReadDouble());
  if (!std::isfinite(det.options_.screen_threshold) ||
      det.options_.screen_threshold <= 0.0) {
    return Status::InvalidArgument("corrupt screen threshold");
  }
  PW_ASSIGN_OR_RETURN(uint64_t max_outage_lines, r.ReadU64());
  if (max_outage_lines == 0 || max_outage_lines > grid.num_lines()) {
    return Status::InvalidArgument("corrupt max outage lines");
  }
  det.options_.max_outage_lines = static_cast<size_t>(max_outage_lines);
  PW_ASSIGN_OR_RETURN(det.options_.peel_null_quantile, r.ReadDouble());
  PW_ASSIGN_OR_RETURN(det.options_.peel_margin, r.ReadDouble());
  if (!std::isfinite(det.options_.peel_null_quantile) ||
      det.options_.peel_null_quantile <= 0.0 ||
      det.options_.peel_null_quantile > 1.0 ||
      !std::isfinite(det.options_.peel_margin)) {
    return Status::InvalidArgument("corrupt multi-line thresholds");
  }

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

  PW_ASSIGN_OR_RETURN(det.normal_model_, ReadModel(r));
  PW_ASSIGN_OR_RETURN(SubspaceModel class_base, ReadModel(r));
  if (class_base.ambient_dim() != class_base.constraints.basis().rows() ||
      class_base.constraints.basis().cols() == 0) {
    return Status::InvalidArgument("class model shape is corrupt");
  }
  PW_ASSIGN_OR_RETURN(uint64_t num_line_models, r.ReadU64());
  if (num_line_models != num_cases) {
    return Status::InvalidArgument("line model count mismatch");
  }
  det.line_models_.reserve(num_line_models);
  for (uint64_t c = 0; c < num_line_models; ++c) {
    PW_ASSIGN_OR_RETURN(SubspaceModel m, ReadModel(r));
    det.line_models_.push_back(std::move(m));
  }
  PW_ASSIGN_OR_RETURN(uint64_t num_class_models, r.ReadU64());
  if (num_class_models != num_cases) {
    return Status::InvalidArgument("class model count mismatch");
  }
  // Every class model shares the base's coefficients; only the means
  // are kept, and the family rebuilds its shifts and complete-data
  // energies from them.
  std::vector<Vector> case_means;
  case_means.reserve(num_class_models);
  for (uint64_t c = 0; c < num_class_models; ++c) {
    PW_ASSIGN_OR_RETURN(SubspaceModel m, ReadModel(r));
    if (m.mean.size() != class_base.ambient_dim() ||
        !SameDoubles(m.constraints.basis(), class_base.constraints.basis()) ||
        m.singular_values.values() != class_base.singular_values.values() ||
        !SameDoubles(m.full_basis, class_base.full_basis)) {
      return Status::InvalidArgument(
          "class model does not share the family coefficients");
    }
    case_means.push_back(std::move(m.mean));
  }
  det.class_family_ =
      ClassFamily(std::move(class_base), std::move(case_means));
  PW_ASSIGN_OR_RETURN(uint64_t num_nodes, r.ReadU64());
  if (num_nodes != grid.num_buses()) {
    return Status::InvalidArgument("node model count mismatch");
  }
  det.node_models_.resize(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    PW_ASSIGN_OR_RETURN(det.node_models_[i].union_model, ReadModel(r));
    PW_ASSIGN_OR_RETURN(det.node_models_[i].intersection_model, ReadModel(r));
  }

  PW_ASSIGN_OR_RETURN(uint64_t num_ellipses, r.ReadU64());
  if (num_ellipses != grid.num_buses()) {
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
    PW_ASSIGN_OR_RETURN(per_case[c], r.ReadDoubleVector());
  }
  PW_ASSIGN_OR_RETURN(Matrix node_level, ReadMatrix(r));
  det.capabilities_ =
      CapabilityTable::FromData(std::move(per_case), std::move(node_level));

  PW_ASSIGN_OR_RETURN(uint64_t num_groups, r.ReadU64());
  if (num_groups != network.num_clusters()) {
    return Status::InvalidArgument("group count mismatch");
  }
  det.groups_.resize(num_groups);
  for (uint64_t c = 0; c < num_groups; ++c) {
    PW_ASSIGN_OR_RETURN(det.groups_[c].in_cluster, r.ReadSizeVector());
    PW_ASSIGN_OR_RETURN(det.groups_[c].out_of_cluster, r.ReadSizeVector());
    // Group members index into per-node tables at detection time, so a
    // corrupt index must be caught here, not by a crash in Detect.
    for (const auto* members :
         {&det.groups_[c].in_cluster, &det.groups_[c].out_of_cluster}) {
      for (size_t m : *members) {
        if (m >= grid.num_buses()) {
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
  PW_ASSIGN_OR_RETURN(det.peel_tau_, r.ReadDoubleVector());
  const bool multi = det.options_.max_outage_lines >= 2;
  if (det.peel_tau_.size() != (multi ? num_cases * num_cases : 0)) {
    return Status::InvalidArgument("peel calibration size mismatch");
  }
  for (double tau : det.peel_tau_) {
    if (std::isnan(tau)) {
      return Status::InvalidArgument("corrupt peel threshold");
    }
  }
  PW_ASSIGN_OR_RETURN(det.node_baseline_in_, ReadVector(r));
  PW_ASSIGN_OR_RETURN(det.node_baseline_out_, ReadVector(r));
  if (det.node_baseline_in_.size() != grid.num_buses() ||
      det.node_baseline_out_.size() != grid.num_buses()) {
    return Status::InvalidArgument("baseline size mismatch");
  }
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
