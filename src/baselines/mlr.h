#ifndef PHASORWATCH_BASELINES_MLR_H_
#define PHASORWATCH_BASELINES_MLR_H_

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "grid/grid.h"
#include "linalg/matrix.h"
#include "sim/measurement.h"
#include "sim/missing_data.h"

namespace phasorwatch::baselines {

/// Training configuration for the multinomial-logistic-regression
/// comparator (the paper's MLR peers [4], [14]). The step size, L2
/// decay and batch size are fixed in mlr.cc; only the number of passes
/// over the training set is set by callers.
struct MlrOptions {
  size_t epochs = 300;
};

/// Softmax-regression classifier over outage classes: class 0 is normal
/// operation, class 1..E maps to `case_lines`. Features are the
/// standardized concatenation of both phasor channels (2N values).
class MlrClassifier {
 public:
  /// Trains on normal data plus one block per line-outage class.
  PW_NODISCARD static Result<MlrClassifier> Train(
      const grid::Grid& grid, const sim::PhasorDataSet& normal_data,
      const std::vector<grid::LineId>& case_lines,
      const std::vector<const sim::PhasorDataSet*>& outage_data,
      const MlrOptions& options, Rng& rng);

  /// Predicted class for one sample (0 = normal). Missing entries (per
  /// `mask`) are mean-imputed before scoring.
  size_t Predict(const linalg::Vector& vm, const linalg::Vector& va,
                 const sim::MissingMask& mask) const;

  /// The candidate line set for a prediction: empty for class 0,
  /// one line otherwise.
  std::vector<grid::LineId> PredictLines(const linalg::Vector& vm,
                                         const linalg::Vector& va,
                                         const sim::MissingMask& mask) const;

  /// Per-class probabilities for one sample.
  linalg::Vector Probabilities(const linalg::Vector& vm,
                               const linalg::Vector& va,
                               const sim::MissingMask& mask) const;

  size_t num_classes() const { return case_lines_.size() + 1; }
  double final_training_loss() const { return final_loss_; }

  /// An untrained classifier; populate via Train().
  MlrClassifier() = default;

 private:
  linalg::Vector BuildFeatures(const linalg::Vector& vm,
                               const linalg::Vector& va,
                               const sim::MissingMask& mask) const;

  std::vector<grid::LineId> case_lines_;
  linalg::Matrix weights_;       // num_classes x (num_features + 1 bias)
  linalg::Vector feature_mean_;  // standardization
  linalg::Vector feature_scale_;
  double final_loss_ = 0.0;
};

}  // namespace phasorwatch::baselines

#endif  // PHASORWATCH_BASELINES_MLR_H_
