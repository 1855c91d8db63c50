#ifndef PHASORWATCH_GRID_SYNTHETIC_H_
#define PHASORWATCH_GRID_SYNTHETIC_H_

#include <string>

#include "common/check.h"
#include "common/status.h"
#include "grid/grid.h"

namespace phasorwatch::grid {

/// Parameters for the deterministic synthetic-grid generator behind the
/// IEEE-57/118 stand-ins. Both generators share the rest: average nodal
/// degree ~3, meshed but locally sparse topology, 45% of buses carrying
/// load, 18% hosting generation sized to cover the load with margin.
struct SyntheticGridOptions {
  std::string name = "synthetic";
  size_t num_buses = 57;
  size_t num_lines = 80;     ///< must be >= num_buses (backbone + chords)
  uint64_t seed = 1;
  double mean_x = 0.10;      ///< mean series reactance (pu)
};

/// Builds a connected, meshed synthetic grid.
///
/// Construction: scatter buses in the unit square (seeded), connect them
/// with a geometric spanning tree (locality like real grids), lift its
/// leaves to degree 2, then add a quarter of the remaining chords as
/// the shortest unused pairs and the rest from a shuffled
/// medium-distance tranche until `num_lines` is reached. Line
/// impedances scale with geometric length around `mean_x`. The result
/// always has exactly `num_buses` buses and `num_lines` distinct lines,
/// one slack bus, and balanced load/generation, shrunk until the DC
/// angle spread is physical.
PW_NODISCARD Result<Grid> BuildSyntheticGrid(
    const SyntheticGridOptions& options);

/// Parameters for the ring-of-meshes generator behind the 300/1000-bus
/// scale studies (docs/SPARSE.md). The grid is `num_regions` regional
/// meshes placed around a ring — each region built with the same
/// scatter, spanning tree and leaf lift as BuildSyntheticGrid, from its
/// own Rng::Fork stream, then filled with its nearest chords up to
/// ceil(1.4 x buses_per_region) lines — joined by two tie lines between
/// the geometrically nearest buses of neighbouring regions. The ring
/// keeps the whole grid 2-edge-connected across regions while the Ybus
/// stays as sparse as a real interconnection (average degree ~3
/// regardless of size).
struct RingOfMeshesOptions {
  std::string name = "ring-of-meshes";
  size_t num_regions = 10;
  size_t buses_per_region = 30;
  uint64_t seed = 1;
};

/// Builds the ring-of-meshes grid. Deterministic in `options.seed`:
/// every region and every parameter pass draws from its own forked
/// stream, so regions are statistically independent but reproducible.
/// Line parameters, injections and the DC angle-spread rescale are
/// BuildSyntheticGrid's, with mean series reactance 0.10 pu.
PW_NODISCARD Result<Grid> BuildRingOfMeshesGrid(
    const RingOfMeshesOptions& options);

/// 300-bus preset (10 regions x 30 buses): the smallest grid the
/// sparse-path thresholds route through CSR by default. Used by the
/// scale benchmarks (BENCH_sparse.json) and the 300-bus golden table.
PW_NODISCARD Result<Grid> Synthetic300Bus(uint64_t seed = 1);

/// 1000-bus preset (20 regions x 50 buses) for headroom studies.
PW_NODISCARD Result<Grid> Synthetic1000Bus(uint64_t seed = 1);

}  // namespace phasorwatch::grid

#endif  // PHASORWATCH_GRID_SYNTHETIC_H_
