#include "detect/groups.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"

namespace phasorwatch::detect {
namespace {

// "p approx 1" threshold of Eq. 8: nodes whose learned capability for
// every member of the cluster is at least this join the group.
constexpr double kCapabilityThreshold = 0.90;
// Minimum members per group; when the Eq. 8 set is smaller the
// highest-scoring remaining nodes fill it up.
constexpr size_t kMinGroupSize = 3;
// Cap on the naive (most-orthogonal) seed members of a group side.
constexpr size_t kNaiveCap = 4;

// The cluster nodes that can be detected at all. Nodes without any
// trainable incident line (e.g. a bus whose only line would island the
// grid) have an all-zero capability row; they cannot be detected by
// anyone and must not veto the cluster.
std::vector<size_t> DetectableMembers(const CapabilityTable& caps,
                                      const std::vector<size_t>& cluster) {
  std::vector<size_t> detectable;
  for (size_t i : cluster) {
    double best_for_i = 0.0;
    for (size_t node = 0; node < caps.NodeLevel().cols(); ++node) {
      best_for_i = std::max(best_for_i, caps.NodeLevel(i, node));
    }
    if (best_for_i != 0.0) detectable.push_back(i);
  }
  return detectable;
}

// Worst-case capability of node `k` over the detectable cluster nodes:
// min over i in C of p_{i,k}. This is the score Eq. 8's intersection
// ranks by.
double ClusterScore(const CapabilityTable& caps,
                    const std::vector<size_t>& detectable, size_t k) {
  if (detectable.empty()) return 0.0;
  double worst = 1.0;
  for (size_t i : detectable) worst = std::min(worst, caps.NodeLevel(i, k));
  return worst;
}

}  // namespace

DetectionGroupBuilder::DetectionGroupBuilder(const sim::PmuNetwork& network,
                                             const CapabilityTable& capabilities,
                                             DetectionGroupOptions options)
    : network_(network),
      capabilities_(capabilities),
      options_(std::move(options)) {}

std::vector<size_t> DetectionGroupBuilder::OrthogonalMembers(
    const linalg::Matrix& loadings, const std::vector<size_t>& candidates,
    size_t max_members) const {
  // Greedy: repeatedly take the candidate whose loading row has the
  // largest norm after deflating by the rows already chosen. Stops when
  // the residual norm collapses (remaining rows are spanned).
  const size_t dim = loadings.cols();
  if (dim == 0 || candidates.empty()) return {};

  std::vector<linalg::Vector> residual;
  residual.reserve(candidates.size());
  double max_norm = 0.0;
  for (size_t node : candidates) {
    residual.push_back(loadings.Row(node));
    max_norm = std::max(max_norm, residual.back().Norm());
  }
  if (max_norm == 0.0) return {};
  // "Most orthogonal" cutoff: a candidate only joins while its loading
  // still has most of its energy outside the span of the chosen ones.
  // The paper notes this naive set is usually small.
  const double threshold = 0.55 * max_norm;

  std::vector<size_t> picked;
  std::vector<bool> used(candidates.size(), false);
  std::vector<linalg::Vector> basis;
  while (picked.size() < max_members) {
    size_t best = candidates.size();
    double best_norm = threshold;
    for (size_t idx = 0; idx < candidates.size(); ++idx) {
      if (used[idx]) continue;
      double norm = residual[idx].Norm();
      if (norm > best_norm) {
        best_norm = norm;
        best = idx;
      }
    }
    if (best == candidates.size()) break;
    used[best] = true;
    picked.push_back(candidates[best]);
    linalg::Vector dir = residual[best];
    dir *= 1.0 / residual[best].Norm();
    basis.push_back(dir);
    for (size_t idx = 0; idx < candidates.size(); ++idx) {
      if (used[idx]) continue;
      double dot = residual[idx].Dot(dir);
      for (size_t c = 0; c < dim; ++c) residual[idx][c] -= dot * dir[c];
    }
  }
  return picked;
}

ClusterDetectionGroup DetectionGroupBuilder::Build(
    size_t cluster, const linalg::Matrix& cluster_constraint_basis) const {
  PW_CHECK_LT(cluster, network_.num_clusters());
  const std::vector<size_t>& members = network_.Cluster(cluster);
  const size_t n = network_.num_nodes();

  std::vector<size_t> inside = members;
  std::vector<size_t> outside;
  outside.reserve(n - inside.size());
  for (size_t i = 0; i < n; ++i) {
    if (network_.ClusterOf(i) != cluster) outside.push_back(i);
  }

  const std::vector<size_t> detectable =
      DetectableMembers(capabilities_, members);

  auto build_side = [&](const std::vector<size_t>& candidates) {
    // Naive seed: most-orthogonal loadings within the candidate set,
    // capped low — the whole point of Fig. 4 is that this set alone is
    // not enough.
    std::vector<size_t> naive = OrthogonalMembers(
        cluster_constraint_basis, candidates, kNaiveCap);

    // Learned members (Eq. 8): capability over every cluster node.
    std::vector<std::pair<double, size_t>> scored;
    scored.reserve(candidates.size());
    for (size_t k : candidates) {
      scored.push_back({ClusterScore(capabilities_, detectable, k), k});
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    std::vector<size_t> learned;
    for (const auto& [score, k] : scored) {
      if (score >= kCapabilityThreshold &&
          learned.size() < kMaxGroupSize) {
        learned.push_back(k);
      }
    }
    // Ensure a workable group even when the threshold filters everyone:
    // take the best-scoring nodes.
    size_t need = std::min(kMinGroupSize, scored.size());
    if (learned.size() < need) {
      PW_OBS_COUNTER_INC("groups.builder.min_size_backfills");
    }
    for (const auto& [score, k] : scored) {
      if (learned.size() >= need) break;
      if (std::find(learned.begin(), learned.end(), k) == learned.end()) {
        learned.push_back(k);
      }
    }

    // Blend per Fig. 4's x-axis: naive members plus the top
    // learned_fraction of the learned ranking.
    size_t take = static_cast<size_t>(
        std::lround(options_.learned_fraction *
                    static_cast<double>(learned.size())));
    std::vector<size_t> group = naive;
    for (size_t idx = 0; idx < take; ++idx) {
      if (std::find(group.begin(), group.end(), learned[idx]) == group.end()) {
        group.push_back(learned[idx]);
      }
    }
    if (group.empty() && !candidates.empty()) {
      // Last resort: the single best-capability candidate.
      PW_OBS_COUNTER_INC("groups.builder.last_resort_singletons");
      group.push_back(scored.front().second);
    }
    if (group.size() > kMaxGroupSize) {
      group.resize(kMaxGroupSize);
    }
    std::sort(group.begin(), group.end());
    return group;
  };

  ClusterDetectionGroup out;
  out.in_cluster = build_side(inside);
  out.out_of_cluster = build_side(outside);
  PW_OBS_COUNTER_INC("groups.builder.clusters_built");
  return out;
}

}  // namespace phasorwatch::detect
