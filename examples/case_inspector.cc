// Case inspector: loads a MATPOWER case file (or a built-in IEEE
// system), solves the AC power flow, and prints the voltage profile,
// the heaviest corridors, and an N-1 screening of which line outages
// change the grid state the most — the quantities the outage detector
// learns from.
//
// Usage:
//   case_inspector                 (built-in IEEE-14)
//   case_inspector 30              (built-in IEEE-30 / 57 / 118)
//   case_inspector path/to/case.m  (any MATPOWER case file)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/table_printer.h"
#include "grid/ieee_cases.h"
#include "io/matpower.h"
#include "powerflow/flows.h"
#include "powerflow/powerflow.h"

namespace pw = phasorwatch;

int main(int argc, char** argv) {
  pw::SetLogLevelFromEnv();
  // Resolve the grid: bus-count shorthand, file path, or default.
  pw::Result<pw::grid::Grid> grid = pw::grid::IeeeCase14();
  if (argc > 1) {
    char* end = nullptr;
    long buses = std::strtol(argv[1], &end, 10);
    if (end != argv[1] && *end == '\0') {
      grid = pw::grid::EvaluationSystem(static_cast<int>(buses));
    } else {
      grid = pw::io::LoadMatpowerCase(argv[1]);
    }
  }
  if (!grid.ok()) {
    std::fprintf(stderr, "cannot load case: %s\n",
                 grid.status().ToString().c_str());
    return 1;
  }

  std::printf("Case %s: %zu buses, %zu lines, %.1f MW load, %.1f MW gen\n\n",
              grid->name().c_str(), grid->num_buses(), grid->num_lines(),
              grid->TotalLoadMw(), grid->TotalGenMw());

  auto sol = pw::pf::SolveAcPowerFlow(*grid);
  if (!sol.ok()) {
    std::fprintf(stderr, "power flow failed: %s\n",
                 sol.status().ToString().c_str());
    return 1;
  }
  std::printf("Newton-Raphson: %d iterations\n\n", sol->iterations);

  // Voltage profile extremes.
  size_t lo = 0, hi = 0;
  for (size_t i = 1; i < grid->num_buses(); ++i) {
    if (sol->vm[i] < sol->vm[lo]) lo = i;
    if (sol->vm[i] > sol->vm[hi]) hi = i;
  }
  std::printf("Voltage profile: bus %d lowest at %.4f pu, bus %d highest at "
              "%.4f pu\n\n",
              grid->bus(lo).id, sol->vm[lo], grid->bus(hi).id, sol->vm[hi]);

  // Heaviest corridors.
  auto flows = pw::pf::ComputeBranchFlows(*grid, *sol);
  if (!flows.ok()) return 1;
  std::vector<size_t> order(flows->size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*flows)[a].LoadingMva() > (*flows)[b].LoadingMva();
  });
  pw::TablePrinter corridors({"line", "P from (MW)", "Q from (MVAr)",
                              "loading (MVA)", "loss (MW)"});
  for (size_t k = 0; k < std::min<size_t>(8, order.size()); ++k) {
    const auto& f = (*flows)[order[k]];
    corridors.AddRow({std::to_string(f.from_bus) + "-" +
                          std::to_string(f.to_bus),
                      pw::TablePrinter::Num(f.p_from_mw, 1),
                      pw::TablePrinter::Num(f.q_from_mvar, 1),
                      pw::TablePrinter::Num(f.LoadingMva(), 1),
                      pw::TablePrinter::Num(f.LossMw(), 2)});
  }
  std::printf("Heaviest corridors (top 8):\n");
  corridors.Print(std::cout);
  std::printf("Total series losses: %.2f MW\n\n",
              pw::pf::TotalLossMw(*flows));

  // N-1 screening: solve every single-line outage and rank by the
  // phasor disturbance it causes (the outage "signature" the detector
  // keys on).
  struct Screen {
    pw::grid::LineId line;
    double max_angle_shift_deg = 0.0;
    bool islands = false;
    bool converged = true;
  };
  std::vector<Screen> screens;
  for (const pw::grid::LineId& line : grid->lines()) {
    Screen s;
    s.line = line;
    if (grid->WouldIsland(line)) {
      s.islands = true;
      screens.push_back(s);
      continue;
    }
    auto outage_grid = grid->WithLineOut(line);
    if (!outage_grid.ok()) {
      s.converged = false;
      screens.push_back(s);
      continue;
    }
    auto outage_sol = pw::pf::SolveAcPowerFlow(*outage_grid);
    if (!outage_sol.ok()) {
      s.converged = false;
      screens.push_back(s);
      continue;
    }
    for (size_t i = 0; i < grid->num_buses(); ++i) {
      double shift =
          std::fabs(outage_sol->va_rad[i] - sol->va_rad[i]) * 180.0 / M_PI;
      s.max_angle_shift_deg = std::max(s.max_angle_shift_deg, shift);
    }
    screens.push_back(s);
  }
  std::sort(screens.begin(), screens.end(), [](const Screen& a,
                                               const Screen& b) {
    return a.max_angle_shift_deg > b.max_angle_shift_deg;
  });

  pw::TablePrinter screening({"outage", "max angle shift (deg)", "note"});
  size_t shown = 0;
  for (const Screen& s : screens) {
    if (shown >= 10) break;
    std::string note;
    if (s.islands) {
      note = "islands the grid";
    } else if (!s.converged) {
      note = "power flow diverges";
    }
    screening.AddRow({grid->LineName(s.line),
                      s.islands || !s.converged
                          ? "-"
                          : pw::TablePrinter::Num(s.max_angle_shift_deg, 3),
                      note});
    ++shown;
  }
  size_t invisible = 0;
  for (const Screen& s : screens) {
    if (!s.islands && s.converged && s.max_angle_shift_deg < 0.2) {
      ++invisible;
    }
  }
  std::printf("N-1 screening (top 10 by phasor disturbance):\n");
  screening.Print(std::cout);
  std::printf("\n%zu of %zu line outages shift no bus angle by more than "
              "0.2 degrees —\nthose are the hard cases for any "
              "measurement-based outage detector.\n",
              invisible, screens.size());
  return 0;
}
