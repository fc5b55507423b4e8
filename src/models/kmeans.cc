#include "models/kmeans.h"

#include <cmath>
#include <limits>

#include "core/consolidation.h"
#include "data/sharding.h"
#include "engine/worker_loop.h"
#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "util/logging.h"
#include "util/rng.h"

namespace hetps {
namespace {

// Squared distance between sparse x and dense centroid row.
double SquaredDistanceToCentroid(const SparseVector& x,
                                 const std::vector<double>& params,
                                 size_t row_offset, size_t dim) {
  // ||x - c||^2 = ||c||^2 - 2 <x, c> + ||x||^2
  double c_norm = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double c = params[row_offset + j];
    c_norm += c * c;
  }
  double dot = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    dot += x.value(i) * params[row_offset + static_cast<size_t>(x.index(i))];
  }
  return c_norm - 2.0 * dot + x.SquaredNorm();
}

int NearestCentroid(const SparseVector& x, const std::vector<double>& params,
                    int k, size_t dim) {
  int best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (int c = 0; c < k; ++c) {
    const double d = SquaredDistanceToCentroid(
        x, params, static_cast<size_t>(c) * dim, dim);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

}  // namespace

int KMeansModel::Assign(const SparseVector& x) const {
  return NearestCentroid(x, centroids, k, static_cast<size_t>(dim));
}

double KMeansModel::Inertia(const Dataset& dataset) const {
  if (dataset.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const SparseVector& x = dataset.example(i).features;
    const int c = Assign(x);
    total += SquaredDistanceToCentroid(
        x, centroids, static_cast<size_t>(c) * static_cast<size_t>(dim),
        static_cast<size_t>(dim));
  }
  return total / static_cast<double>(dataset.size());
}

Result<KMeansModel> TrainKMeans(const Dataset& dataset,
                                const KMeansConfig& config) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (config.k <= 0) return Status::InvalidArgument("k must be positive");
  if (config.learning_rate <= 0.0 || config.learning_rate >= 1.0) {
    return Status::InvalidArgument("learning_rate must be in (0,1)");
  }
  if (static_cast<size_t>(config.k) > dataset.size()) {
    return Status::InvalidArgument("k exceeds dataset size");
  }
  const size_t dim = static_cast<size_t>(dataset.dimension());
  const int64_t total_dim =
      static_cast<int64_t>(config.k) * static_cast<int64_t>(dim);

  const std::unique_ptr<ConsolidationRule> rule =
      MakeConsolidationRule(config.rule);
  PsOptions ps_opts;
  ps_opts.num_servers = config.num_servers;
  ps_opts.sync = config.sync;
  ParameterServer ps(total_dim, config.num_workers, *rule, ps_opts);

  // Seed centroids with farthest-point (k-means++-style) initialization
  // over a sample, so well-separated clusters each get a seed; pushed as a
  // clock-0 priming update by worker 0 before training starts.
  {
    Rng rng(config.seed);
    const size_t sample = std::min<size_t>(dataset.size(), 512);
    std::vector<size_t> chosen;
    chosen.push_back(static_cast<size_t>(rng.NextUint64(sample)));
    auto dist2 = [&](size_t a, size_t b) {
      const SparseVector& xa = dataset.example(a).features;
      const SparseVector& xb = dataset.example(b).features;
      const SparseVector diff = SparseVector::Add(xa, xb, 1.0, -1.0);
      return diff.SquaredNorm();
    };
    while (chosen.size() < static_cast<size_t>(config.k)) {
      size_t best = 0;
      double best_d = -1.0;
      for (size_t i = 0; i < sample; ++i) {
        double nearest = 1e300;
        for (size_t c : chosen) nearest = std::min(nearest, dist2(i, c));
        if (nearest > best_d) {
          best_d = nearest;
          best = i;
        }
      }
      chosen.push_back(best);
    }
    std::vector<double> init(static_cast<size_t>(total_dim), 0.0);
    for (int c = 0; c < config.k; ++c) {
      const SparseVector& x =
          dataset.example(chosen[static_cast<size_t>(c)]).features;
      for (size_t i = 0; i < x.nnz(); ++i) {
        init[static_cast<size_t>(c) * dim +
             static_cast<size_t>(x.index(i))] = x.value(i);
      }
    }
    // A single priming push keeps every rule's bookkeeping consistent
    // (it is just an ordinary update).
    ps.Push(0, 0, SparseVector::FromDense(init, 0.0));
  }

  const std::vector<DataShard> shards =
      SplitData(dataset.size(), static_cast<size_t>(config.num_workers),
                ShardingPolicy::kContiguous);

  RunWorkerThreads(config.num_workers, [&](int m) {
    const auto& indices = shards[static_cast<size_t>(m)].example_indices;
    std::vector<double> delta(static_cast<size_t>(total_dim), 0.0);
    // Clock 0 was consumed by the priming push for worker 0's clock
    // accounting; everyone starts at clock 1.
    WorkerLoop loop;
    loop.first_clock = 1;
    loop.end_clock = config.max_clocks + 1;
    loop.compute = [&](int, std::vector<double>* params,
                       SparseVector* update) {
      std::vector<double>& replica = *params;
      std::fill(delta.begin(), delta.end(), 0.0);
      for (size_t i : indices) {
        const SparseVector& x = dataset.example(i).features;
        const int cc = NearestCentroid(x, replica, config.k, dim);
        const size_t off = static_cast<size_t>(cc) * dim;
        // Online k-means SGD step: c += eta (x - c), applied locally and
        // accumulated for the push.
        for (size_t j = 0; j < dim; ++j) {
          const double step = config.learning_rate * (0.0 - replica[off + j]);
          replica[off + j] += step;
          delta[off + j] += step;
        }
        for (size_t k = 0; k < x.nnz(); ++k) {
          const size_t j = static_cast<size_t>(x.index(k));
          const double step = config.learning_rate * x.value(k);
          replica[off + j] += step;
          delta[off + j] += step;
        }
      }
      *update = SparseVector::FromDense(delta, 0.0);
    };
    WorkerClient client(m, &ps);
    std::vector<double> replica(static_cast<size_t>(total_dim), 0.0);
    HETPS_CHECK_OK(client.PullBlocking(0, &replica));
    HETPS_CHECK_OK(RunWorker(loop, &client, &replica, nullptr));
  });

  KMeansModel model;
  model.k = config.k;
  model.dim = static_cast<int64_t>(dim);
  model.centroids = ps.Snapshot();
  return model;
}

}  // namespace hetps
