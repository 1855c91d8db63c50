#ifndef PHASORWATCH_DETECT_SUBSPACE_MODEL_H_
#define PHASORWATCH_DETECT_SUBSPACE_MODEL_H_

#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/subspace.h"
#include "sim/measurement.h"

namespace phasorwatch::detect {

/// Options for learning an operating-condition subspace model.
struct SubspaceModelOptions {
  /// Left singular vectors with singular value <= rel_tol * s_max are
  /// kept as constraint directions (the paper's "vectors of U
  /// corresponding to the lowest singular values").
  double constraint_rel_tol = 0.12;
  size_t min_constraints = 3;
  size_t max_constraints = 64;
  /// Also retain the full left-singular basis (needed to build whitened
  /// classification models; costs O(N^2) memory per model).
  bool keep_full_basis = false;
};

/// Learned model of one operating condition (normal operation or one
/// line-outage case), following Sec. IV-A.
///
/// The SVD of the centered data matrix X splits R^N into high-variance
/// directions (load-driven variation) and low-variance directions. The
/// low-variance left singular vectors are *constraints*: for any sample
/// x of this condition, B^T (x - mean) ~ 0 where B stacks those vectors.
/// Proximity of a sample to the model is the squared violation of its
/// constraints, which is exactly the squared Euclidean distance from the
/// centered sample to the model's signal subspace.
///
/// Note on Eq. (3): the paper composes per-line models into union /
/// intersection subspaces of their *solution sets*. On the constraint
/// bases stored here those operations flip: the union of solution sets
/// corresponds to intersecting constraint sets, and vice versa. The
/// NodeSubspaces builder below applies that duality.
struct SubspaceModel {
  linalg::Vector mean;          ///< training mean of the feature vector
  linalg::Subspace constraints; ///< low-variance directions (ambient N)
  linalg::Vector singular_values;  ///< full spectrum (diagnostics)
  /// Full left-singular basis (columns sorted by descending singular
  /// value); empty unless SubspaceModelOptions::keep_full_basis.
  linalg::Matrix full_basis;

  size_t ambient_dim() const { return mean.size(); }

  /// Squared constraint violation ||B^T (x - mean)||^2 for a complete
  /// sample.
  double Proximity(const linalg::Vector& x) const;
};

/// Builds a whitened (LDA-style) classification model: the "constraint"
/// matrix holds the reference model's full basis with each direction
/// scaled by its inverse standard deviation (ridged at the bottom
/// quartile of the spectrum), paired with `mean`. The proximity of a
/// sample to such a model is the Mahalanobis distance under the shared
/// reference covariance — the statistically efficient statistic for
/// mean-shifted classes like line outages. Note the stored basis is
/// intentionally NOT orthonormal; the proximity machinery treats it as
/// a general coefficient matrix.
///
/// `reference` must carry a full basis; `num_samples` is the training
/// sample count behind the reference spectrum.
SubspaceModel MakeWhitenedClassModel(const SubspaceModel& reference,
                                     linalg::Vector mean,
                                     size_t num_samples);

/// The paper's X is "either voltage magnitude or phase measurements";
/// the detector stacks both into one 2N feature vector, magnitudes in
/// [0, N) and angles in [N, 2N), which sharpens weak-line signatures
/// (reactive effects show in magnitudes). The feature matrix of a data
/// set (2N x T).
linalg::Matrix FeatureMatrix(const sim::PhasorDataSet& data);

/// The stacked (vm; va) feature vector of one sample.
linalg::Vector FeatureVector(const linalg::Vector& vm,
                             const linalg::Vector& va);

/// FeatureVector into a reused buffer (Assign keeps capacity, so a
/// warmed per-sample loop extracts features without allocating).
PW_NO_ALLOC void FeatureVectorInto(const linalg::Vector& vm,
                                   const linalg::Vector& va,
                                   linalg::Vector* out);

/// Learns a subspace model of one condition from its feature matrix
/// (features x samples; FeatureMatrix for the detector).
PW_NODISCARD Result<SubspaceModel> LearnSubspaceModel(
    linalg::Matrix x, const SubspaceModelOptions& options);

/// Per-node composite subspaces of Eq. (3), built from the models of
/// every line-outage case incident to the node.
struct NodeSubspaces {
  /// Paper's S_i-union: close when >= 1 line of the node is out.
  /// Constraint basis = soft intersection of the member constraint sets.
  SubspaceModel union_model;
  /// Paper's S_i-intersection: close only under severe multi-line
  /// outages of the node. Constraint basis = union of the member
  /// constraint sets.
  SubspaceModel intersection_model;
};

/// Composes the per-line models incident to one node. `cos_tol` controls
/// the numerical soft-intersection of constraint bases (directions whose
/// average-projector eigenvalue reaches it are treated as shared). The
/// spectrum comes from the smaller of the summed-rank and the
/// ambient-dimension Gram matrices (docs/SPARSE.md). Fails when the
/// eigensolve does.
PW_NODISCARD Result<NodeSubspaces> BuildNodeSubspaces(
    const std::vector<const SubspaceModel*>& line_models,
    double cos_tol = 0.6);

}  // namespace phasorwatch::detect

#endif  // PHASORWATCH_DETECT_SUBSPACE_MODEL_H_
