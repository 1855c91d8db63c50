#ifndef PHASORWATCH_SIM_MISSING_DATA_H_
#define PHASORWATCH_SIM_MISSING_DATA_H_

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "grid/grid.h"
#include "sim/pmu_network.h"

namespace phasorwatch::sim {

/// Per-sample availability mask over power nodes: element i is true when
/// node i's measurement is missing at the test instant. The three
/// named patterns implement Fig. 6 of the paper; the reliability draw
/// implements the generalized Sec. V-C3 scenario.
struct MissingMask {
  std::vector<bool> missing;

  static MissingMask None(size_t num_nodes) {
    MissingMask m;
    m.missing.assign(num_nodes, false);
    return m;
  }

  size_t size() const { return missing.size(); }
  size_t count() const {
    size_t c = 0;
    for (bool b : missing) c += b ? 1 : 0;
    return c;
  }

  /// Indices of available (non-missing) nodes.
  std::vector<size_t> AvailableIndices() const;
  /// AvailableIndices into a reused buffer (cleared first; capacity is
  /// kept, so a warmed caller allocates nothing).
  PW_NO_ALLOC void AvailableIndicesInto(std::vector<size_t>* out) const;
  /// Indices of missing nodes.
  std::vector<size_t> MissingIndices() const;
};

/// Fig. 6 top: measurements at both endpoints of the outaged line are
/// lost (PMU/link failure caused by the outage itself).
MissingMask MissingAtOutage(size_t num_nodes, const grid::LineId& line);

/// Fig. 6 middle/bottom: `count` nodes drawn uniformly at random are
/// missing, never touching nodes in `exclude` (empty for the
/// normal-operations variant; the outage endpoints for the
/// outage-samples variant).
MissingMask MissingRandom(size_t num_nodes, size_t count,
                          const std::vector<size_t>& exclude, Rng& rng);

/// Whole-PDC loss: every node of cluster `c` is missing.
MissingMask MissingCluster(const PmuNetwork& network, size_t cluster);

/// Generalized pattern: node i is missing when its PMU (or link) is down
/// in an availability draw from the reliability model.
MissingMask MissingFromReliability(const PmuNetwork& network,
                                   const PmuReliability& reliability,
                                   Rng& rng);

}  // namespace phasorwatch::sim

#endif  // PHASORWATCH_SIM_MISSING_DATA_H_
