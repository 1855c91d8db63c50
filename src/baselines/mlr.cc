#include "baselines/mlr.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"

namespace phasorwatch::baselines {
namespace {

using linalg::Matrix;
using linalg::Vector;

// Mini-batch gradient descent settings. No caller varies these.
constexpr double kLearningRate = 0.25;
constexpr double kL2Lambda = 1e-4;
constexpr size_t kBatchSize = 32;

// Numerically stable softmax in place.
void Softmax(Vector& logits) {
  double max_logit = logits[0];
  for (size_t i = 1; i < logits.size(); ++i) {
    max_logit = std::max(max_logit, logits[i]);
  }
  double sum = 0.0;
  for (size_t i = 0; i < logits.size(); ++i) {
    logits[i] = std::exp(logits[i] - max_logit);
    sum += logits[i];
  }
  for (size_t i = 0; i < logits.size(); ++i) logits[i] /= sum;
}

}  // namespace

Result<MlrClassifier> MlrClassifier::Train(
    const grid::Grid& grid, const sim::PhasorDataSet& normal_data,
    const std::vector<grid::LineId>& case_lines,
    const std::vector<const sim::PhasorDataSet*>& outage_data,
    const MlrOptions& options, Rng& rng) {
  const size_t n = grid.num_buses();
  if (normal_data.num_nodes() != n) {
    return Status::InvalidArgument("normal data node-count mismatch");
  }
  if (case_lines.size() != outage_data.size() || outage_data.empty()) {
    return Status::InvalidArgument("outage classes malformed");
  }

  // Assemble the design matrix: one row per sample, 2N raw features.
  const size_t num_features = 2 * n;
  std::vector<const sim::PhasorDataSet*> blocks = {&normal_data};
  for (const sim::PhasorDataSet* block : outage_data) {
    if (block == nullptr || block->num_nodes() != n) {
      return Status::InvalidArgument("outage block missing/wrong size");
    }
    blocks.push_back(block);
  }
  size_t total = 0;
  for (const auto* block : blocks) total += block->num_samples();

  Matrix x(total, num_features);
  std::vector<size_t> labels(total);
  size_t row = 0;
  for (size_t cls = 0; cls < blocks.size(); ++cls) {
    const sim::PhasorDataSet& block = *blocks[cls];
    for (size_t t = 0; t < block.num_samples(); ++t, ++row) {
      for (size_t i = 0; i < n; ++i) {
        x(row, i) = block.vm(i, t);
        x(row, n + i) = block.va(i, t);
      }
      labels[row] = cls;
    }
  }

  MlrClassifier clf;
  clf.case_lines_ = case_lines;

  // Standardize features.
  clf.feature_mean_ = Vector(num_features);
  clf.feature_scale_ = Vector(num_features, 1.0);
  for (size_t j = 0; j < num_features; ++j) {
    double mean = 0.0;
    for (size_t r = 0; r < total; ++r) mean += x(r, j);
    mean /= static_cast<double>(total);
    double var = 0.0;
    for (size_t r = 0; r < total; ++r) {
      double d = x(r, j) - mean;
      var += d * d;
    }
    var /= static_cast<double>(total);
    clf.feature_mean_[j] = mean;
    clf.feature_scale_[j] = std::sqrt(var) > 1e-12 ? std::sqrt(var) : 1.0;
    for (size_t r = 0; r < total; ++r) {
      x(r, j) = (x(r, j) - mean) / clf.feature_scale_[j];
    }
  }

  const size_t num_classes = blocks.size();
  clf.weights_ = Matrix(num_classes, num_features + 1);

  // Mini-batch gradient descent on the cross-entropy with L2 decay.
  std::vector<size_t> order(total);
  for (size_t i = 0; i < total; ++i) order[i] = i;

  Vector logits(num_classes);
  double loss = 0.0;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(order);
    loss = 0.0;
    for (size_t start = 0; start < total; start += kBatchSize) {
      size_t end = std::min(total, start + kBatchSize);
      Matrix grad(num_classes, num_features + 1);
      for (size_t bi = start; bi < end; ++bi) {
        size_t r = order[bi];
        for (size_t c = 0; c < num_classes; ++c) {
          double z = clf.weights_(c, num_features);  // bias
          for (size_t j = 0; j < num_features; ++j) {
            z += clf.weights_(c, j) * x(r, j);
          }
          logits[c] = z;
        }
        Softmax(logits);
        loss -= std::log(std::max(logits[labels[r]], 1e-12));
        for (size_t c = 0; c < num_classes; ++c) {
          double err = logits[c] - (c == labels[r] ? 1.0 : 0.0);
          for (size_t j = 0; j < num_features; ++j) {
            grad(c, j) += err * x(r, j);
          }
          grad(c, num_features) += err;
        }
      }
      double scale = kLearningRate / static_cast<double>(end - start);
      for (size_t c = 0; c < num_classes; ++c) {
        for (size_t j = 0; j <= num_features; ++j) {
          clf.weights_(c, j) -=
              scale * (grad(c, j) +
                       kL2Lambda * clf.weights_(c, j) *
                           static_cast<double>(end - start));
        }
      }
    }
  }
  clf.final_loss_ = loss / static_cast<double>(total);
  return clf;
}

Vector MlrClassifier::BuildFeatures(const Vector& vm, const Vector& va,
                                    const sim::MissingMask& mask) const {
  const size_t n = vm.size();
  Vector f(2 * n);
  for (size_t i = 0; i < n; ++i) {
    bool miss = i < mask.size() && mask.missing[i];
    // Mean imputation = zero in standardized space: the classifier sees
    // a "perfectly average" reading where data is missing.
    f[i] = miss ? 0.0 : (vm[i] - feature_mean_[i]) / feature_scale_[i];
    f[n + i] =
        miss ? 0.0 : (va[i] - feature_mean_[n + i]) / feature_scale_[n + i];
  }
  return f;
}

Vector MlrClassifier::Probabilities(const Vector& vm, const Vector& va,
                                    const sim::MissingMask& mask) const {
  Vector f = BuildFeatures(vm, va, mask);
  const size_t num_features = f.size();
  Vector logits(num_classes());
  for (size_t c = 0; c < num_classes(); ++c) {
    double z = weights_(c, num_features);
    for (size_t j = 0; j < num_features; ++j) z += weights_(c, j) * f[j];
    logits[c] = z;
  }
  Softmax(logits);
  return logits;
}

size_t MlrClassifier::Predict(const Vector& vm, const Vector& va,
                              const sim::MissingMask& mask) const {
  Vector probs = Probabilities(vm, va, mask);
  size_t best = 0;
  for (size_t c = 1; c < probs.size(); ++c) {
    if (probs[c] > probs[best]) best = c;
  }
  return best;
}

std::vector<grid::LineId> MlrClassifier::PredictLines(
    const Vector& vm, const Vector& va, const sim::MissingMask& mask) const {
  size_t cls = Predict(vm, va, mask);
  if (cls == 0) return {};
  return {case_lines_[cls - 1]};
}

}  // namespace phasorwatch::baselines
