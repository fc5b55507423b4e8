#include "models/matrix_factorization.h"

#include <cmath>

#include "core/consolidation.h"
#include "data/sharding.h"
#include "engine/worker_loop.h"
#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "util/logging.h"

namespace hetps {

RatingsDataset::RatingsDataset(std::vector<Rating> ratings, int num_users,
                               int num_items)
    : ratings_(std::move(ratings)),
      num_users_(num_users),
      num_items_(num_items) {
  for (const Rating& r : ratings_) {
    HETPS_CHECK(r.user >= 0 && r.user < num_users_) << "user out of range";
    HETPS_CHECK(r.item >= 0 && r.item < num_items_) << "item out of range";
  }
}

void RatingsDataset::Add(const Rating& rating) {
  HETPS_CHECK(rating.user >= 0) << "negative user";
  HETPS_CHECK(rating.item >= 0) << "negative item";
  num_users_ = std::max(num_users_, rating.user + 1);
  num_items_ = std::max(num_items_, rating.item + 1);
  ratings_.push_back(rating);
}

void RatingsDataset::Shuffle(Rng* rng) {
  rng->Shuffle(&ratings_);
}

double RatingsDataset::MeanRating() const {
  if (ratings_.empty()) return 0.0;
  double sum = 0.0;
  for (const Rating& r : ratings_) sum += r.value;
  return sum / static_cast<double>(ratings_.size());
}

RatingsDataset GenerateSyntheticRatings(const SyntheticRatingsConfig& c) {
  HETPS_CHECK(c.num_users > 0 && c.num_items > 0 && c.true_rank > 0)
      << "bad synthetic-ratings shape";
  Rng rng(c.seed);
  const size_t uf = static_cast<size_t>(c.num_users) *
                    static_cast<size_t>(c.true_rank);
  const size_t vf = static_cast<size_t>(c.num_items) *
                    static_cast<size_t>(c.true_rank);
  std::vector<double> u(uf);
  std::vector<double> v(vf);
  const double scale = 1.0 / std::sqrt(static_cast<double>(c.true_rank));
  for (auto& x : u) x = rng.NextGaussian(0.0, scale);
  for (auto& x : v) x = rng.NextGaussian(0.0, scale);
  std::vector<Rating> ratings;
  ratings.reserve(c.num_ratings);
  for (size_t k = 0; k < c.num_ratings; ++k) {
    Rating r;
    r.user = static_cast<int>(rng.NextUint64(
        static_cast<uint64_t>(c.num_users)));
    r.item = static_cast<int>(rng.NextUint64(
        static_cast<uint64_t>(c.num_items)));
    double dot = 0.0;
    for (int f = 0; f < c.true_rank; ++f) {
      dot += u[static_cast<size_t>(r.user) * c.true_rank + f] *
             v[static_cast<size_t>(r.item) * c.true_rank + f];
    }
    r.value = dot + rng.NextGaussian(0.0, c.noise_stddev);
    ratings.push_back(r);
  }
  return RatingsDataset(std::move(ratings), c.num_users, c.num_items);
}

double MatrixFactorizationModel::Predict(int user, int item) const {
  HETPS_CHECK(user >= 0 && user < num_users) << "user out of range";
  HETPS_CHECK(item >= 0 && item < num_items) << "item out of range";
  double dot = 0.0;
  for (int f = 0; f < rank; ++f) {
    dot += user_factors[static_cast<size_t>(user) * rank + f] *
           item_factors[static_cast<size_t>(item) * rank + f];
  }
  return dot;
}

double MatrixFactorizationModel::Rmse(const RatingsDataset& dataset) const {
  if (dataset.empty()) return 0.0;
  double sq = 0.0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const Rating& r = dataset.rating(i);
    const double e = Predict(r.user, r.item) - r.value;
    sq += e * e;
  }
  return std::sqrt(sq / static_cast<double>(dataset.size()));
}

Result<MatrixFactorizationModel> TrainMatrixFactorization(
    const RatingsDataset& dataset,
    const MatrixFactorizationConfig& config) {
  if (dataset.empty()) return Status::InvalidArgument("empty ratings");
  if (config.rank <= 0) return Status::InvalidArgument("rank must be > 0");
  if (config.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (config.num_workers <= 0 || config.num_servers <= 0) {
    return Status::InvalidArgument("need positive worker/server counts");
  }
  const int rank = config.rank;
  const size_t user_dim = static_cast<size_t>(dataset.num_users()) *
                          static_cast<size_t>(rank);
  const size_t item_dim = static_cast<size_t>(dataset.num_items()) *
                          static_cast<size_t>(rank);
  const int64_t total_dim = static_cast<int64_t>(user_dim + item_dim);

  const std::unique_ptr<ConsolidationRule> rule =
      MakeConsolidationRule(config.rule);
  PsOptions ps_opts;
  ps_opts.num_servers = config.num_servers;
  ps_opts.sync = config.sync;
  ParameterServer ps(total_dim, config.num_workers, *rule, ps_opts);

  // Random factor initialization, primed as worker 0's clock-0 update so
  // every consolidation rule stays bookkeeping-consistent.
  {
    Rng rng(config.seed);
    std::vector<double> init(static_cast<size_t>(total_dim));
    for (auto& x : init) {
      x = rng.NextGaussian(0.0, config.init_stddev);
    }
    ps.Push(0, 0, SparseVector::FromDense(init, 0.0));
  }

  const std::vector<DataShard> shards =
      SplitData(dataset.size(), static_cast<size_t>(config.num_workers),
                ShardingPolicy::kContiguous);

  RunWorkerThreads(config.num_workers, [&](int m) {
    const auto& indices = shards[static_cast<size_t>(m)].example_indices;
    std::vector<double> delta(static_cast<size_t>(total_dim), 0.0);
    WorkerLoop loop;
    loop.first_clock = 1;
    loop.end_clock = config.max_clocks + 1;
    loop.compute = [&](int, std::vector<double>* params,
                       SparseVector* update) {
      std::vector<double>& replica = *params;
      std::fill(delta.begin(), delta.end(), 0.0);
      for (size_t i : indices) {
        const Rating& r = dataset.rating(i);
        const size_t po = static_cast<size_t>(r.user) * rank;
        const size_t qo = user_dim + static_cast<size_t>(r.item) * rank;
        double dot = 0.0;
        for (int f = 0; f < rank; ++f) {
          dot += replica[po + f] * replica[qo + f];
        }
        const double e = r.value - dot;
        for (int f = 0; f < rank; ++f) {
          const double p = replica[po + f];
          const double q = replica[qo + f];
          const double dp = config.learning_rate * (e * q - config.l2 * p);
          const double dq = config.learning_rate * (e * p - config.l2 * q);
          replica[po + f] += dp;
          replica[qo + f] += dq;
          delta[po + f] += dp;
          delta[qo + f] += dq;
        }
      }
      *update = SparseVector::FromDense(delta, 0.0);
    };
    WorkerClient client(m, &ps);
    std::vector<double> replica(static_cast<size_t>(total_dim), 0.0);
    HETPS_CHECK_OK(client.PullBlocking(0, &replica));
    HETPS_CHECK_OK(RunWorker(loop, &client, &replica, nullptr));
  });

  MatrixFactorizationModel model;
  model.rank = rank;
  model.num_users = dataset.num_users();
  model.num_items = dataset.num_items();
  const std::vector<double> w = ps.Snapshot();
  model.user_factors.assign(w.begin(),
                            w.begin() + static_cast<long>(user_dim));
  model.item_factors.assign(w.begin() + static_cast<long>(user_dim),
                            w.end());
  return model;
}

}  // namespace hetps
