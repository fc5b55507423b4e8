#include "data/dataset.h"

#include <algorithm>
#include <sstream>

#include "math/kernels.h"
#include "util/logging.h"

namespace hetps {

Dataset::Dataset(std::vector<Example> examples, int64_t dimension)
    : examples_(std::move(examples)), dimension_(dimension) {
  for (const auto& ex : examples_) {
    HETPS_CHECK(ex.features.MinimumDimension() <= dimension_)
        << "example feature index exceeds declared dimension";
  }
}

void Dataset::Add(Example example) {
  dimension_ = std::max(dimension_, example.features.MinimumDimension());
  examples_.push_back(std::move(example));
}

void Dataset::Shuffle(Rng* rng) {
  rng->Shuffle(&examples_);
}

double Dataset::AverageNnz() const {
  if (examples_.empty()) return 0.0;
  size_t total = 0;
  for (const auto& ex : examples_) total += ex.features.nnz();
  return static_cast<double>(total) / static_cast<double>(examples_.size());
}

double Dataset::Objective(const LossFunction& loss,
                          const std::vector<double>& w, double l2) const {
  if (examples_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& ex : examples_) {
    sum += loss.Loss(ex.features.Dot(w), ex.label);
  }
  return sum / static_cast<double>(examples_.size()) +
         0.5 * l2 * kernels::SquaredNorm(w.data(), w.size());
}

double Dataset::ObjectiveSample(const LossFunction& loss,
                                const std::vector<double>& w, double l2,
                                size_t sample_size) const {
  const size_t n = std::min(sample_size, examples_.size());
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Example& ex = examples_[i];
    sum += loss.Loss(ex.features.Dot(w), ex.label);
  }
  return sum / static_cast<double>(n) +
         0.5 * l2 * kernels::SquaredNorm(w.data(), w.size());
}

double Dataset::Accuracy(const LossFunction& loss,
                         const std::vector<double>& w) const {
  if (examples_.empty()) return 0.0;
  size_t correct = 0;
  for (const auto& ex : examples_) {
    const double margin = ex.features.Dot(w);
    const double pred = loss.Predict(margin);
    // Interpret probability-like outputs with a 0.5 threshold and
    // margin-like outputs with a 0 threshold.
    const bool positive =
        (loss.name() == "logistic") ? pred >= 0.5 : pred >= 0.0;
    const bool truth = ex.label > 0.0;
    if (positive == truth) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(examples_.size());
}

size_t Dataset::MemoryBytes() const {
  size_t total = sizeof(Dataset);
  for (const auto& ex : examples_) {
    total += sizeof(Example) + ex.features.MemoryBytes();
  }
  return total;
}

std::string Dataset::DebugString() const {
  std::ostringstream os;
  os << "Dataset(n=" << size() << ", dim=" << dimension_
     << ", avg_nnz=" << AverageNnz() << ")";
  return os.str();
}

}  // namespace hetps
