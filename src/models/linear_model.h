#ifndef HETPS_MODELS_LINEAR_MODEL_H_
#define HETPS_MODELS_LINEAR_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sync_policy.h"
#include "data/dataset.h"
#include "engine/threaded_trainer.h"
#include "math/loss.h"
#include "math/sparse_vector.h"
#include "util/status.h"

namespace hetps {

/// Everything needed to train a linear model on the heterogeneity-aware
/// parameter server. This is the library's primary user-facing entry
/// point (the prototype's "ready-to-run algorithms", Appendix D).
struct LinearModelConfig {
  /// "logistic" (LR), "hinge" (SVM) or "squared" (linear regression).
  std::string loss = "logistic";
  double l2 = 1e-4;
  double learning_rate = 0.1;
  bool decayed_rate = false;
  double decay_alpha = 0.2;
  /// Consolidation rule: "ssp" | "con" | "dyn" (default DynSGD).
  std::string rule = "dyn";
  SyncPolicy sync = SyncPolicy::Ssp(3);
  int num_workers = 4;
  int num_servers = 2;
  /// Partition layout, forwarded to the PS (see ps/partition.h). Range
  /// partitioning keeps cold feature tails in few partitions, which is
  /// what makes the version-aware pull cache (DESIGN.md §7) pay off.
  int partitions_per_server = 2;
  PartitionScheme scheme = PartitionScheme::kRangeHash;
  int max_clocks = 20;
  double batch_fraction = 0.1;
  bool partition_sync = false;
  double update_filter_epsilon = 0.0;
  /// Asynchronous push pipeline: 0 = synchronous pushes, >= 1 = bounded
  /// in-flight window (see ThreadedTrainerOptions::push_window).
  int push_window = 0;
  /// Forwarded to ThreadedTrainerOptions::on_epoch — worker 0's per-clock
  /// hook (RunReporter::OnEpoch plugs in here for periodic metric dumps).
  std::function<void(int)> on_epoch;
};

/// A trained linear classifier/regressor.
class LinearModel {
 public:
  /// Trains with the real multi-threaded runtime. Validates the config.
  static Result<LinearModel> Train(const Dataset& dataset,
                                   const LinearModelConfig& config);

  /// Raw margin <w, x>.
  double PredictMargin(const SparseVector& x) const;

  /// Loss-specific prediction (probability for LR, sign for SVM, value
  /// for regression).
  double Predict(const SparseVector& x) const;

  /// Classification accuracy on `dataset`.
  double Accuracy(const Dataset& dataset) const;

  /// Regularized objective on `dataset`.
  double Objective(const Dataset& dataset) const;

  const std::vector<double>& weights() const { return weights_; }
  const std::string& loss_name() const { return loss_name_; }
  double l2() const { return l2_; }
  const ThreadedTrainResult& train_stats() const { return stats_; }

  /// Text serialization: header (loss, l2, dim) + non-zero weights.
  Status Save(const std::string& path) const;
  static Result<LinearModel> Load(const std::string& path);

 private:
  LinearModel(std::vector<double> weights, std::string loss_name,
              double l2);

  std::vector<double> weights_;
  std::string loss_name_;
  double l2_ = 0.0;
  std::unique_ptr<LossFunction> loss_;
  ThreadedTrainResult stats_;
};

}  // namespace hetps

#endif  // HETPS_MODELS_LINEAR_MODEL_H_
