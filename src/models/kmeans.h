#ifndef HETPS_MODELS_KMEANS_H_
#define HETPS_MODELS_KMEANS_H_

#include <cstdint>
#include <vector>

#include "core/sync_policy.h"
#include "data/dataset.h"
#include "util/status.h"

namespace hetps {

/// Distributed SGD k-means on the parameter server — one of the
/// prototype's "ready-to-run algorithms" (Appendix D) and a demonstration
/// that the PS API generalizes beyond linear models: the parameter is the
/// flattened k×dim centroid matrix; each worker pushes SGD-style centroid
/// moves c += η (x − c) for its assigned points.
struct KMeansConfig {
  int k = 4;
  double learning_rate = 0.3;
  int num_workers = 2;
  int num_servers = 1;
  int max_clocks = 10;
  SyncPolicy sync = SyncPolicy::Ssp(2);
  /// Consolidation rule name ("ssp" | "con" | "dyn").
  std::string rule = "dyn";
  uint64_t seed = 5;
};

struct KMeansModel {
  int k = 0;
  int64_t dim = 0;
  /// Row-major k×dim centroid matrix.
  std::vector<double> centroids;

  /// Index of the nearest centroid for `x`.
  int Assign(const SparseVector& x) const;

  /// Mean squared distance of every example to its nearest centroid.
  double Inertia(const Dataset& dataset) const;
};

/// Trains with real worker threads against a shared PS.
Result<KMeansModel> TrainKMeans(const Dataset& dataset,
                                const KMeansConfig& config);

}  // namespace hetps

#endif  // HETPS_MODELS_KMEANS_H_
