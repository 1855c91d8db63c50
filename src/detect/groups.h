#ifndef PHASORWATCH_DETECT_GROUPS_H_
#define PHASORWATCH_DETECT_GROUPS_H_

#include <vector>

#include "common/status.h"
#include "detect/capabilities.h"
#include "detect/subspace_model.h"
#include "sim/pmu_network.h"

namespace phasorwatch::detect {

/// Cap on members per detection group (keeps proximity evaluation
/// cheap); also caps the any-available fallback group of Detect.
inline constexpr size_t kMaxGroupSize = 12;

/// Tuning knob for detection-group formation (Sec. IV-B). Eq. 8's
/// capability threshold and the minimum group size are fixed in
/// groups.cc, the member cap is kMaxGroupSize.
struct DetectionGroupOptions {
  /// Fraction of the learned (Eq. 8) members included, on top of the
  /// naive PCA-orthogonal members. 1.0 = the proposed robust group,
  /// 0.0 = naive group only. This is the x-axis of Fig. 4.
  double learned_fraction = 1.0;
};

/// The two alternative member sets of one cluster's detection group
/// (Eq. 8): in-cluster members used when the cluster's data is complete,
/// and out-of-cluster members used when any of the cluster's data is
/// missing (Eq. 10 picks between them at query time).
struct ClusterDetectionGroup {
  std::vector<size_t> in_cluster;
  std::vector<size_t> out_of_cluster;
};

/// Builds per-cluster detection groups.
///
/// The "naive" seed members are nodes with mutually orthogonal loadings
/// in the cluster's outage subspaces (found by greedy row-space
/// Gram-Schmidt over the stacked constraint bases of the cluster's
/// nodes). Learned members come from the capability table: nodes whose
/// p_{k,i} clears the threshold for every k in the cluster, ranked by
/// their worst-case capability. `learned_fraction` blends the two, which
/// reproduces the Fig. 4 ablation.
class DetectionGroupBuilder {
 public:
  DetectionGroupBuilder(const sim::PmuNetwork& network,
                        const CapabilityTable& capabilities,
                        DetectionGroupOptions options);

  /// Group for cluster `c`. `cluster_constraint_basis` stacks the
  /// constraint bases (columns) of the union models of the cluster's
  /// nodes; its rows give each node's loading used for the naive pick.
  ClusterDetectionGroup Build(size_t cluster,
                              const linalg::Matrix& cluster_constraint_basis) const;

  /// Naive member selection only (exposed for tests/ablation): greedy
  /// most-orthogonal rows of the loading matrix.
  std::vector<size_t> OrthogonalMembers(
      const linalg::Matrix& loadings, const std::vector<size_t>& candidates,
      size_t max_members) const;

 private:
  const sim::PmuNetwork& network_;
  const CapabilityTable& capabilities_;
  DetectionGroupOptions options_;
};

}  // namespace phasorwatch::detect

#endif  // PHASORWATCH_DETECT_GROUPS_H_
