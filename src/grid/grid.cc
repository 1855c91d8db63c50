#include "grid/grid.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/status.h"
#include "common/union_find.h"

namespace phasorwatch::grid {
namespace {

constexpr double kDegToRad = M_PI / 180.0;

/// Per-branch π-model admittance contributions, shared by the dense and
/// sparse builders so both accumulate bit-identical values.
struct BranchStamp {
  linalg::Complex ff, tt, ft, tf;
};

BranchStamp StampBranch(const Branch& br) {
  linalg::Complex ys = 1.0 / linalg::Complex(br.r, br.x);
  linalg::Complex charging(0.0, br.b / 2.0);
  double tap = br.tap == 0.0 ? 1.0 : br.tap;
  linalg::Complex ratio =
      tap * std::exp(linalg::Complex(0.0, br.shift_deg * kDegToRad));
  BranchStamp s;
  s.ff = (ys + charging) / (tap * tap);
  s.tt = ys + charging;
  s.ft = -ys / std::conj(ratio);
  s.tf = -ys / ratio;
  return s;
}

}  // namespace

Result<Grid> Grid::Create(std::string name, std::vector<Bus> buses,
                          std::vector<Branch> branches, double base_mva) {
  if (buses.empty()) {
    return Status::InvalidArgument("grid requires at least one bus");
  }
  if (!(base_mva > 0.0) || !std::isfinite(base_mva)) {
    return Status::InvalidArgument("base MVA must be positive and finite");
  }

  Grid g;
  g.name_ = std::move(name);
  g.base_mva_ = base_mva;
  g.buses_ = std::move(buses);
  g.branches_ = std::move(branches);

  // Index external ids and find the slack bus.
  std::map<int, size_t> index;
  size_t slack_count = 0;
  for (size_t i = 0; i < g.buses_.size(); ++i) {
    const Bus& b = g.buses_[i];
    if (!index.emplace(b.id, i).second) {
      return Status::InvalidArgument("duplicate bus id " +
                                     std::to_string(b.id));
    }
    if (b.type == BusType::kSlack) {
      g.slack_ = i;
      ++slack_count;
    }
  }
  if (slack_count != 1) {
    return Status::InvalidArgument("grid must have exactly one slack bus, has " +
                                   std::to_string(slack_count));
  }

  g.branch_ends_.reserve(g.branches_.size());
  for (const Branch& br : g.branches_) {
    auto from = index.find(br.from_bus);
    auto to = index.find(br.to_bus);
    if (from == index.end() || to == index.end()) {
      return Status::InvalidArgument("branch references unknown bus " +
                                     std::to_string(br.from_bus) + "-" +
                                     std::to_string(br.to_bus));
    }
    if (from->second == to->second) {
      return Status::InvalidArgument("self-loop branch at bus " +
                                     std::to_string(br.from_bus));
    }
    if (!(br.x > 0.0)) {
      return Status::InvalidArgument("branch " + std::to_string(br.from_bus) +
                                     "-" + std::to_string(br.to_bus) +
                                     " must have positive reactance");
    }
    if (!(br.r >= 0.0)) {
      return Status::InvalidArgument("branch " + std::to_string(br.from_bus) +
                                     "-" + std::to_string(br.to_bus) +
                                     " has negative or NaN resistance");
    }
    g.branch_ends_.push_back({from->second, to->second});
  }

  g.RebuildDerived();
  if (!g.IsConnected()) {
    return Status::InvalidArgument("in-service grid topology is disconnected");
  }
  return g;
}

void Grid::RebuildDerived() {
  adjacency_.assign(buses_.size(), {});
  std::set<LineId> line_set;
  for (size_t k = 0; k < branches_.size(); ++k) {
    if (!branches_[k].in_service) continue;
    auto [from, to] = branch_ends_[k];
    if (line_set.insert(LineId(from, to)).second) {
      adjacency_[from].push_back(to);
      adjacency_[to].push_back(from);
    }
  }
  lines_.assign(line_set.begin(), line_set.end());
  for (auto& adj : adjacency_) std::sort(adj.begin(), adj.end());
}

Result<size_t> Grid::BusIndex(int external_id) const {
  for (size_t i = 0; i < buses_.size(); ++i) {
    if (buses_[i].id == external_id) return i;
  }
  return Status::NotFound("bus id " + std::to_string(external_id));
}

const std::vector<size_t>& Grid::Neighbors(size_t bus_idx) const {
  PW_CHECK_LT(bus_idx, adjacency_.size());
  return adjacency_[bus_idx];
}

bool Grid::IsConnected() const {
  UnionFind uf(buses_.size());
  for (size_t i = 0; i < adjacency_.size(); ++i) {
    for (size_t j : adjacency_[i]) uf.Union(i, j);
  }
  return uf.NumComponents() == 1;
}

bool Grid::WouldIsland(const LineId& line) const {
  UnionFind uf(buses_.size());
  for (size_t i = 0; i < adjacency_.size(); ++i) {
    for (size_t j : adjacency_[i]) {
      if (LineId(i, j) == line) continue;
      uf.Union(i, j);
    }
  }
  return uf.NumComponents() != 1;
}

Result<Grid> Grid::WithLineOut(const LineId& line) const {
  if (WouldIsland(line)) {
    return Status::Islanded("removing " + LineName(line) +
                            " disconnects the grid");
  }
  Grid out = *this;
  bool found = false;
  for (size_t k = 0; k < out.branches_.size(); ++k) {
    Branch& br = out.branches_[k];
    if (br.in_service &&
        LineId(branch_ends_[k].from, branch_ends_[k].to) == line) {
      br.in_service = false;
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound("no in-service line " + LineName(line));
  }
  out.name_ = name_ + "\\" + LineName(line);
  out.RebuildDerived();
  return out;
}

linalg::ComplexMatrix Grid::BuildAdmittanceMatrix() const {
  const size_t n = buses_.size();
  linalg::ComplexMatrix ybus(n, n);
  for (size_t k = 0; k < branches_.size(); ++k) {
    if (!branches_[k].in_service) continue;
    auto [f, t] = branch_ends_[k];
    // Standard π-model with an ideal transformer on the "from" side.
    BranchStamp s = StampBranch(branches_[k]);
    ybus(f, f) += s.ff;
    ybus(t, t) += s.tt;
    ybus(f, t) += s.ft;
    ybus(t, f) += s.tf;
  }
  for (size_t i = 0; i < n; ++i) {
    ybus(i, i) +=
        linalg::Complex(buses_[i].gs_mw, buses_[i].bs_mvar) / base_mva_;
  }
  return ybus;
}

SparseAdmittance Grid::BuildSparseAdmittance() const {
  const size_t n = buses_.size();
  // Pattern over every branch — including out-of-service ones, whose
  // slots stay explicit zeros — plus all diagonals.
  std::vector<std::pair<size_t, size_t>> pattern;
  pattern.reserve(n + 2 * branches_.size());
  for (size_t i = 0; i < n; ++i) pattern.emplace_back(i, i);
  for (const auto& [f, t] : branch_ends_) {
    pattern.emplace_back(f, t);
    pattern.emplace_back(t, f);
  }

  SparseAdmittance y;
  y.g = linalg::CsrMatrix::FromPattern(n, n, pattern);
  y.b = linalg::CsrMatrix::FromPattern(n, n, std::move(pattern));

  auto add = [&y](size_t r, size_t c, linalg::Complex v) {
    size_t slot = y.g.EntrySlot(r, c);
    y.g.SetValue(slot, y.g.ValueAt(slot) + v.real());
    y.b.SetValue(slot, y.b.ValueAt(slot) + v.imag());
  };
  for (size_t k = 0; k < branches_.size(); ++k) {
    if (!branches_[k].in_service) continue;
    auto [f, t] = branch_ends_[k];
    BranchStamp s = StampBranch(branches_[k]);
    add(f, f, s.ff);
    add(t, t, s.tt);
    add(f, t, s.ft);
    add(t, f, s.tf);
  }
  for (size_t i = 0; i < n; ++i) {
    add(i, i, linalg::Complex(buses_[i].gs_mw, buses_[i].bs_mvar) / base_mva_);
  }
  return y;
}

linalg::Matrix Grid::BuildSusceptanceLaplacian() const {
  const size_t n = buses_.size();
  linalg::Matrix lap(n, n);
  for (size_t k = 0; k < branches_.size(); ++k) {
    if (!branches_[k].in_service) continue;
    auto [f, t] = branch_ends_[k];
    double w = 1.0 / branches_[k].x;
    lap(f, f) += w;
    lap(t, t) += w;
    lap(f, t) -= w;
    lap(t, f) -= w;
  }
  return lap;
}

double Grid::TotalLoadMw() const {
  double total = 0.0;
  for (const Bus& b : buses_) total += b.pd_mw;
  return total;
}

double Grid::TotalGenMw() const {
  double total = 0.0;
  for (const Bus& b : buses_) total += b.pg_mw;
  return total;
}

std::string Grid::LineName(const LineId& line) const {
  PW_CHECK_LT(line.i, buses_.size());
  PW_CHECK_LT(line.j, buses_.size());
  return "line " + std::to_string(buses_[line.i].id) + "-" +
         std::to_string(buses_[line.j].id);
}

}  // namespace phasorwatch::grid
