#include "grid/synthetic.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/union_find.h"
#include "linalg/lu.h"
#include "linalg/sparse.h"

namespace phasorwatch::grid {
namespace {

struct Point {
  double x;
  double y;
};

double Dist(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

}  // namespace

Result<Grid> BuildSyntheticGrid(const SyntheticGridOptions& options) {
  const size_t n = options.num_buses;
  const size_t m = options.num_lines;
  if (n < 3) {
    return Status::InvalidArgument("synthetic grid needs at least 3 buses");
  }
  if (m < n) {
    return Status::InvalidArgument(
        "synthetic grid needs at least num_buses lines for a meshed "
        "topology");
  }
  if (m > n * (n - 1) / 2) {
    return Status::InvalidArgument("more lines requested than bus pairs");
  }

  // pw-lint: allow(rng-discipline) synthetic-grid root seed stream.
  Rng rng(options.seed);

  // 1. Scatter buses in the unit square.
  std::vector<Point> pos(n);
  for (auto& p : pos) p = {rng.Uniform(), rng.Uniform()};

  // 2. Geometric minimum spanning tree (Prim) for the backbone: real
  // transmission lines overwhelmingly connect nearby substations.
  std::set<std::pair<size_t, size_t>> edges;  // normalized (i < j)
  {
    std::vector<bool> in_tree(n, false);
    std::vector<double> best_dist(n, 1e30);
    std::vector<size_t> best_from(n, 0);
    in_tree[0] = true;
    for (size_t i = 1; i < n; ++i) {
      best_dist[i] = Dist(pos[0], pos[i]);
      best_from[i] = 0;
    }
    for (size_t step = 1; step < n; ++step) {
      size_t next = n;
      double next_dist = 1e30;
      for (size_t i = 0; i < n; ++i) {
        if (!in_tree[i] && best_dist[i] < next_dist) {
          next = i;
          next_dist = best_dist[i];
        }
      }
      PW_CHECK_LT(next, n);
      in_tree[next] = true;
      edges.insert({std::min(next, best_from[next]),
                    std::max(next, best_from[next])});
      for (size_t i = 0; i < n; ++i) {
        if (in_tree[i]) continue;
        double d = Dist(pos[next], pos[i]);
        if (d < best_dist[i]) {
          best_dist[i] = d;
          best_from[i] = next;
        }
      }
    }
  }

  // 3. Mesh reinforcement until the line budget is spent. A quarter of
  // the chords are the geometrically shortest unused pairs (the short
  // loops real grids are built with); the rest are medium-distance ties
  // sampled from the next tranche, so loops carry meaningful flow
  // instead of shadowing a 2-hop path — purely-shortest chords produce
  // electrically redundant lines whose outages leave no phasor
  // signature (tuned empirically against detection-signature strength,
  // see DESIGN.md).
  {
    std::vector<std::pair<double, std::pair<size_t, size_t>>> candidates;
    candidates.reserve(n * (n - 1) / 2);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (edges.count({i, j})) continue;
        // Small jitter breaks distance ties deterministically by seed.
        candidates.push_back(
            {Dist(pos[i], pos[j]) * (1.0 + 0.05 * rng.Uniform()), {i, j}});
      }
    }
    std::sort(candidates.begin(), candidates.end());

    // First, lift every degree-1 bus to degree >= 2 with its nearest
    // unused tie: spanning-tree leaves otherwise make their only line a
    // bridge, whose outage islands the grid (an invalid case in the
    // evaluation, so it would waste line budget).
    std::vector<size_t> degree(n, 0);
    for (const auto& [i, j] : edges) {
      ++degree[i];
      ++degree[j];
    }
    for (const auto& [d, e] : candidates) {
      if (edges.size() >= m) break;
      if (degree[e.first] >= 2 && degree[e.second] >= 2) continue;
      if (edges.insert(e).second) {
        ++degree[e.first];
        ++degree[e.second];
      }
    }

    size_t short_budget = (m - edges.size()) / 4;
    size_t next = 0;
    for (; next < candidates.size() && short_budget > 0; ++next) {
      edges.insert(candidates[next].second);
      --short_budget;
    }
    // Medium-distance ties: sample from the next tranche of candidates
    // (up to three times the remaining budget) without replacement.
    std::vector<std::pair<size_t, size_t>> tranche;
    size_t remaining = m - edges.size();
    for (size_t k = next; k < candidates.size() &&
                          tranche.size() < 8 * remaining; ++k) {
      tranche.push_back(candidates[k].second);
    }
    rng.Shuffle(tranche);
    for (const auto& e : tranche) {
      if (edges.size() >= m) break;
      edges.insert(e);
    }
    // Degenerate geometries: fall back to the sorted order.
    for (size_t k = next; k < candidates.size() && edges.size() < m; ++k) {
      edges.insert(candidates[k].second);
    }
  }
  PW_CHECK_EQ(edges.size(), m);

  // 4. Electrical parameters: impedance grows with geometric length.
  double mean_len = 0.0;
  for (const auto& [i, j] : edges) mean_len += Dist(pos[i], pos[j]);
  mean_len /= static_cast<double>(m);

  std::vector<Branch> branches;
  branches.reserve(m);
  for (const auto& [i, j] : edges) {
    double rel = Dist(pos[i], pos[j]) / mean_len;
    Branch br;
    br.from_bus = static_cast<int>(i) + 1;
    br.to_bus = static_cast<int>(j) + 1;
    br.x = std::max(0.01, options.mean_x * rel * rng.Uniform(0.5, 1.8));
    br.r = br.x * options.r_over_x * rng.Uniform(0.7, 1.3);
    br.b = options.charging_b * rel * rng.Uniform(0.5, 1.5);
    branches.push_back(br);
  }

  // 5. Loads and generation. Slack at bus 1; generators at a spread of
  // buses; loads at a random subset.
  std::vector<Bus> buses(n);
  for (size_t i = 0; i < n; ++i) {
    buses[i].id = static_cast<int>(i) + 1;
    buses[i].type = BusType::kPQ;
    buses[i].vm_setpoint = 1.0;
  }

  double total_load = 0.0;
  size_t num_loaded =
      std::max<size_t>(1, static_cast<size_t>(options.load_fraction *
                                              static_cast<double>(n)));
  for (size_t i : rng.SampleWithoutReplacement(n, num_loaded)) {
    buses[i].pd_mw = rng.Uniform(options.min_load_mw, options.max_load_mw);
    buses[i].qd_mvar = buses[i].pd_mw * rng.Uniform(0.2, 0.45);
    total_load += buses[i].pd_mw;
  }

  size_t num_gens = std::max<size_t>(
      2, static_cast<size_t>(options.gen_fraction * static_cast<double>(n)));
  std::vector<size_t> gen_buses = rng.SampleWithoutReplacement(n, num_gens);
  // The slack bus is always a generator; make sure bus 0 is in the set.
  if (std::find(gen_buses.begin(), gen_buses.end(), size_t{0}) ==
      gen_buses.end()) {
    gen_buses[0] = 0;
  }
  double gen_total = total_load * options.gen_margin;
  double gen_each = gen_total / static_cast<double>(gen_buses.size());
  for (size_t idx = 0; idx < gen_buses.size(); ++idx) {
    Bus& b = buses[gen_buses[idx]];
    b.type = gen_buses[idx] == 0 ? BusType::kSlack : BusType::kPV;
    b.pg_mw = gen_each * rng.Uniform(0.7, 1.3);
    b.vm_setpoint = rng.Uniform(1.0, 1.06);
  }

  // 6. Electrical conditioning via the DC approximation: shrink all
  //    injections until the DC angle spread is physical, guaranteeing
  //    the AC power flow solves at nominal and moderately stressed
  //    loading. (Stiffening low-flow lines to make redundant chords
  //    visible does not work: their angle drop is pinned by the
  //    parallel paths — DESIGN.md §7.)
  const double base_mva = 100.0;
  auto solve_dc = [&](const std::vector<Branch>& brs)
      -> Result<linalg::Vector> {
    linalg::Matrix lap(n, n);
    for (const Branch& br : brs) {
      size_t f = static_cast<size_t>(br.from_bus) - 1;
      size_t t = static_cast<size_t>(br.to_bus) - 1;
      double w = 1.0 / br.x;
      lap(f, f) += w;
      lap(t, t) += w;
      lap(f, t) -= w;
      lap(t, f) -= w;
    }
    linalg::Vector p(n);
    double imbalance = 0.0;
    for (size_t i = 1; i < n; ++i) {
      p[i] = (buses[i].pg_mw - buses[i].pd_mw) / base_mva;
      imbalance += p[i];
    }
    p[0] = -imbalance;  // slack absorbs the schedule imbalance
    std::vector<size_t> keep(n - 1);
    for (size_t i = 0; i + 1 < n; ++i) keep[i] = i + 1;
    PW_ASSIGN_OR_RETURN(
        linalg::LuDecomposition lu,
        linalg::LuDecomposition::Factor(lap.SelectSubmatrix(keep, keep)));
    PW_ASSIGN_OR_RETURN(linalg::Vector theta, lu.Solve(p.Gather(keep)));
    linalg::Vector full(n);
    for (size_t i = 0; i + 1 < n; ++i) full[keep[i]] = theta[i];
    return full;
  };

  {
    auto theta = solve_dc(branches);
    if (theta.ok()) {
      double max_angle = 0.0;
      for (size_t i = 0; i < n; ++i) {
        max_angle = std::max(max_angle, std::fabs((*theta)[i]));
      }
      constexpr double kMaxAngle = 0.55;
      if (max_angle > kMaxAngle) {
        double scale = kMaxAngle / max_angle;
        for (Bus& b : buses) {
          b.pd_mw *= scale;
          b.qd_mvar *= scale;
          b.pg_mw *= scale;
        }
      }
    }
  }

  return Grid::Create(options.name, std::move(buses), std::move(branches));
}

Result<Grid> BuildRingOfMeshesGrid(const RingOfMeshesOptions& options) {
  const size_t regions = options.num_regions;
  const size_t per = options.buses_per_region;
  if (regions < 3) {
    return Status::InvalidArgument("ring-of-meshes needs at least 3 regions");
  }
  if (per < 4) {
    return Status::InvalidArgument(
        "ring-of-meshes needs at least 4 buses per region");
  }
  if (options.ties_per_boundary < 1) {
    return Status::InvalidArgument(
        "ring-of-meshes needs at least one tie per boundary");
  }
  size_t region_lines = std::max(
      per + 1, static_cast<size_t>(std::ceil(
                   options.lines_per_bus * static_cast<double>(per))));
  if (region_lines > per * (per - 1) / 2) {
    return Status::InvalidArgument(
        "regional line budget exceeds bus pairs");
  }
  const size_t n = regions * per;

  // Region centers sit on a circle wide enough that neighbouring unit
  // squares never overlap; each region scatters its buses locally from
  // its own fork stream.
  const double ring_radius =
      std::max(1.5, 0.35 * static_cast<double>(regions));
  std::vector<Point> pos(n);
  std::set<std::pair<size_t, size_t>> edges;  // normalized (i < j)
  for (size_t r = 0; r < regions; ++r) {
    Rng rng = Rng::Fork(options.seed, r);
    const size_t base = r * per;
    const double angle =
        2.0 * M_PI * static_cast<double>(r) / static_cast<double>(regions);
    const double cx = ring_radius * std::cos(angle);
    const double cy = ring_radius * std::sin(angle);
    for (size_t i = 0; i < per; ++i) {
      pos[base + i] = {cx + rng.Uniform(), cy + rng.Uniform()};
    }

    // Regional backbone: geometric MST (Prim) over this region's buses.
    std::vector<bool> in_tree(per, false);
    std::vector<double> best_dist(per, 1e30);
    std::vector<size_t> best_from(per, 0);
    in_tree[0] = true;
    for (size_t i = 1; i < per; ++i) {
      best_dist[i] = Dist(pos[base], pos[base + i]);
    }
    for (size_t step = 1; step < per; ++step) {
      size_t next = per;
      double next_dist = 1e30;
      for (size_t i = 0; i < per; ++i) {
        if (!in_tree[i] && best_dist[i] < next_dist) {
          next = i;
          next_dist = best_dist[i];
        }
      }
      PW_CHECK_LT(next, per);
      in_tree[next] = true;
      edges.insert({base + std::min(next, best_from[next]),
                    base + std::max(next, best_from[next])});
      for (size_t i = 0; i < per; ++i) {
        if (in_tree[i]) continue;
        double d = Dist(pos[base + next], pos[base + i]);
        if (d < best_dist[i]) {
          best_dist[i] = d;
          best_from[i] = next;
        }
      }
    }

    // Regional chords: nearest unused local pairs, leaves lifted to
    // degree >= 2 first (same rationale as BuildSyntheticGrid — a
    // bridge's outage islands the region, wasting evaluation cases).
    std::vector<std::pair<double, std::pair<size_t, size_t>>> candidates;
    candidates.reserve(per * (per - 1) / 2);
    for (size_t i = 0; i < per; ++i) {
      for (size_t j = i + 1; j < per; ++j) {
        if (edges.count({base + i, base + j})) continue;
        candidates.push_back({Dist(pos[base + i], pos[base + j]) *
                                  (1.0 + 0.05 * rng.Uniform()),
                              {base + i, base + j}});
      }
    }
    std::sort(candidates.begin(), candidates.end());
    std::vector<size_t> degree(per, 0);
    for (const auto& [i, j] : edges) {
      if (i >= base && i < base + per) {
        ++degree[i - base];
        ++degree[j - base];
      }
    }
    const size_t region_target =
        edges.size() + (region_lines - (per - 1));
    for (const auto& [d, e] : candidates) {
      if (edges.size() >= region_target) break;
      if (degree[e.first - base] >= 2 && degree[e.second - base] >= 2) {
        continue;
      }
      if (edges.insert(e).second) {
        ++degree[e.first - base];
        ++degree[e.second - base];
      }
    }
    for (const auto& [d, e] : candidates) {
      if (edges.size() >= region_target) break;
      edges.insert(e);
    }
  }

  // Tie lines between neighbouring regions: the geometrically nearest
  // cross-boundary pairs, deterministically (no draws needed). With at
  // least one tie per boundary the ring keeps every region reachable
  // after any single line outage.
  for (size_t r = 0; r < regions; ++r) {
    const size_t base_a = r * per;
    const size_t base_b = ((r + 1) % regions) * per;
    std::vector<std::pair<double, std::pair<size_t, size_t>>> cross;
    cross.reserve(per * per);
    for (size_t i = 0; i < per; ++i) {
      for (size_t j = 0; j < per; ++j) {
        size_t a = base_a + i;
        size_t b = base_b + j;
        cross.push_back({Dist(pos[a], pos[b]),
                         {std::min(a, b), std::max(a, b)}});
      }
    }
    std::sort(cross.begin(), cross.end());
    size_t added = 0;
    for (const auto& [d, e] : cross) {
      if (added >= options.ties_per_boundary) break;
      if (edges.insert(e).second) ++added;
    }
  }
  const size_t m = edges.size();

  // Electrical parameters from a dedicated fork stream; impedances
  // scale with geometric length exactly like BuildSyntheticGrid, so tie
  // lines naturally come out as the long, high-impedance corridors.
  Rng par_rng = Rng::Fork(options.seed, regions);
  double mean_len = 0.0;
  for (const auto& [i, j] : edges) mean_len += Dist(pos[i], pos[j]);
  mean_len /= static_cast<double>(m);

  std::vector<Branch> branches;
  branches.reserve(m);
  for (const auto& [i, j] : edges) {
    double rel = Dist(pos[i], pos[j]) / mean_len;
    Branch br;
    br.from_bus = static_cast<int>(i) + 1;
    br.to_bus = static_cast<int>(j) + 1;
    br.x = std::max(0.01, options.mean_x * rel * par_rng.Uniform(0.5, 1.8));
    br.r = br.x * options.r_over_x * par_rng.Uniform(0.7, 1.3);
    br.b = options.charging_b * rel * par_rng.Uniform(0.5, 1.5);
    branches.push_back(br);
  }

  // Loads and generation, one more fork stream. Slack at bus 1.
  Rng inj_rng = Rng::Fork(options.seed, regions + 1);
  std::vector<Bus> buses(n);
  for (size_t i = 0; i < n; ++i) {
    buses[i].id = static_cast<int>(i) + 1;
    buses[i].type = BusType::kPQ;
    buses[i].vm_setpoint = 1.0;
  }
  double total_load = 0.0;
  size_t num_loaded =
      std::max<size_t>(1, static_cast<size_t>(options.load_fraction *
                                              static_cast<double>(n)));
  for (size_t i : inj_rng.SampleWithoutReplacement(n, num_loaded)) {
    buses[i].pd_mw = inj_rng.Uniform(options.min_load_mw, options.max_load_mw);
    buses[i].qd_mvar = buses[i].pd_mw * inj_rng.Uniform(0.2, 0.45);
    total_load += buses[i].pd_mw;
  }
  size_t num_gens = std::max<size_t>(
      2, static_cast<size_t>(options.gen_fraction * static_cast<double>(n)));
  std::vector<size_t> gen_buses =
      inj_rng.SampleWithoutReplacement(n, num_gens);
  if (std::find(gen_buses.begin(), gen_buses.end(), size_t{0}) ==
      gen_buses.end()) {
    gen_buses[0] = 0;
  }
  double gen_total = total_load * options.gen_margin;
  double gen_each = gen_total / static_cast<double>(gen_buses.size());
  for (size_t idx = 0; idx < gen_buses.size(); ++idx) {
    Bus& b = buses[gen_buses[idx]];
    b.type = gen_buses[idx] == 0 ? BusType::kSlack : BusType::kPV;
    b.pg_mw = gen_each * inj_rng.Uniform(0.7, 1.3);
    b.vm_setpoint = inj_rng.Uniform(1.0, 1.06);
  }

  // Feasibility rescaling via the DC approximation, through the sparse
  // LU: the reduced Laplacian of a 1000-bus ring is far too large for
  // the dense O(n^3) factorization to be worth it here.
  {
    const double base_mva = 100.0;
    std::vector<linalg::Triplet> trips;
    trips.reserve(4 * m + n);
    for (const Branch& br : branches) {
      size_t f = static_cast<size_t>(br.from_bus) - 1;
      size_t t = static_cast<size_t>(br.to_bus) - 1;
      double w = 1.0 / br.x;
      if (f > 0) trips.push_back({f - 1, f - 1, w});
      if (t > 0) trips.push_back({t - 1, t - 1, w});
      if (f > 0 && t > 0) {
        trips.push_back({f - 1, t - 1, -w});
        trips.push_back({t - 1, f - 1, -w});
      }
    }
    linalg::CsrMatrix lap =
        linalg::CsrMatrix::FromTriplets(n - 1, n - 1, std::move(trips));
    auto lu = linalg::SparseLu::Factor(lap);
    if (lu.ok()) {
      linalg::Vector p(n - 1);
      for (size_t i = 1; i < n; ++i) {
        p[i - 1] = (buses[i].pg_mw - buses[i].pd_mw) / base_mva;
      }
      auto theta = lu->Solve(p);
      if (theta.ok()) {
        double max_angle = 0.0;
        for (size_t i = 0; i + 1 < n; ++i) {
          max_angle = std::max(max_angle, std::fabs((*theta)[i]));
        }
        constexpr double kMaxAngle = 0.55;
        if (max_angle > kMaxAngle) {
          double scale = kMaxAngle / max_angle;
          for (Bus& b : buses) {
            b.pd_mw *= scale;
            b.qd_mvar *= scale;
            b.pg_mw *= scale;
          }
        }
      }
    }
  }

  return Grid::Create(options.name, std::move(buses), std::move(branches));
}

Result<Grid> Synthetic300Bus(uint64_t seed) {
  RingOfMeshesOptions options;
  options.name = "synthetic-300";
  options.num_regions = 10;
  options.buses_per_region = 30;
  options.seed = seed;
  return BuildRingOfMeshesGrid(options);
}

Result<Grid> Synthetic1000Bus(uint64_t seed) {
  RingOfMeshesOptions options;
  options.name = "synthetic-1000";
  options.num_regions = 20;
  options.buses_per_region = 50;
  options.seed = seed;
  return BuildRingOfMeshesGrid(options);
}

}  // namespace phasorwatch::grid
