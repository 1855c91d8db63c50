#include "powerflow/flows.h"

#include <cmath>
#include <complex>

#include "common/status.h"

namespace phasorwatch::pf {
namespace {

constexpr double kDegToRad = M_PI / 180.0;

}  // namespace

double BranchFlow::LoadingMva() const {
  double from = std::hypot(p_from_mw, q_from_mvar);
  double to = std::hypot(p_to_mw, q_to_mvar);
  return std::max(from, to);
}

Result<std::vector<BranchFlow>> ComputeBranchFlows(
    const grid::Grid& grid, const PowerFlowSolution& solution) {
  const size_t n = grid.num_buses();
  if (solution.vm.size() != n || solution.va_rad.size() != n) {
    return Status::InvalidArgument("solution size does not match grid");
  }

  std::vector<BranchFlow> flows;
  flows.reserve(grid.num_branches());
  for (size_t k = 0; k < grid.num_branches(); ++k) {
    const grid::Branch& br = grid.branches()[k];
    BranchFlow flow;
    flow.from_bus = br.from_bus;
    flow.to_bus = br.to_bus;
    if (!br.in_service) {
      flows.push_back(flow);
      continue;
    }
    auto [f, t] = grid.branch_ends()[k];

    using C = std::complex<double>;
    C vf = std::polar(solution.vm[f], solution.va_rad[f]);
    C vt = std::polar(solution.vm[t], solution.va_rad[t]);
    C ys = 1.0 / C(br.r, br.x);
    C charging(0.0, br.b / 2.0);
    double tap = br.tap == 0.0 ? 1.0 : br.tap;
    C ratio = tap * std::exp(C(0.0, br.shift_deg * kDegToRad));

    // Same pi-model as the Ybus builder, written out independently so
    // the power-flow oracle in the tests shares no arithmetic with the
    // solver: the ideal transformer sits on the from side. Currents
    // leaving each terminal into the branch:
    C i_from = (ys + charging) * (vf / (tap * tap)) -
               ys * (vt / std::conj(ratio));
    C i_to = (ys + charging) * vt - ys * (vf / ratio);

    C s_from = vf * std::conj(i_from);
    C s_to = vt * std::conj(i_to);
    flow.p_from_mw = s_from.real() * grid.base_mva();
    flow.q_from_mvar = s_from.imag() * grid.base_mva();
    flow.p_to_mw = s_to.real() * grid.base_mva();
    flow.q_to_mvar = s_to.imag() * grid.base_mva();
    flows.push_back(flow);
  }
  return flows;
}

double TotalLossMw(const std::vector<BranchFlow>& flows) {
  double total = 0.0;
  for (const BranchFlow& flow : flows) total += flow.LossMw();
  return total;
}

}  // namespace phasorwatch::pf
