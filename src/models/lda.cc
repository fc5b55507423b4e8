#include "models/lda.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/consolidation.h"
#include "data/sharding.h"
#include "engine/worker_loop.h"
#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "util/logging.h"

namespace hetps {

void Corpus::AddDocument(std::vector<int> word_ids) {
  for (int w : word_ids) {
    HETPS_CHECK(w >= 0) << "negative word id";
    vocab_size_ = std::max(vocab_size_, w + 1);
  }
  total_tokens_ += word_ids.size();
  documents_.push_back(std::move(word_ids));
}

Corpus GenerateSyntheticCorpus(const SyntheticCorpusConfig& config) {
  HETPS_CHECK(config.num_topics > 0 && config.words_per_topic > 0)
      << "bad corpus shape";
  Rng rng(config.seed);
  Corpus corpus;
  const int vocab = config.num_topics * config.words_per_topic;
  for (int d = 0; d < config.num_documents; ++d) {
    // One or two dominant topics per document.
    const int t1 = static_cast<int>(
        rng.NextUint64(static_cast<uint64_t>(config.num_topics)));
    int t2 = t1;
    if (rng.NextBernoulli(0.4)) {
      t2 = static_cast<int>(
          rng.NextUint64(static_cast<uint64_t>(config.num_topics)));
    }
    std::vector<int> words;
    words.reserve(static_cast<size_t>(config.tokens_per_document));
    for (int i = 0; i < config.tokens_per_document; ++i) {
      int topic;
      if (rng.NextBernoulli(config.intruder_fraction)) {
        topic = static_cast<int>(
            rng.NextUint64(static_cast<uint64_t>(config.num_topics)));
      } else {
        topic = rng.NextBernoulli(0.5) ? t1 : t2;
      }
      const int word =
          topic * config.words_per_topic +
          static_cast<int>(rng.NextUint64(
              static_cast<uint64_t>(config.words_per_topic)));
      words.push_back(word);
    }
    corpus.AddDocument(std::move(words));
  }
  HETPS_CHECK(corpus.vocab_size() <= vocab) << "vocab overflow";
  return corpus;
}

double LdaModel::WordProbability(int topic, int word, double beta) const {
  HETPS_CHECK(topic >= 0 && topic < num_topics) << "topic out of range";
  HETPS_CHECK(word >= 0 && word < vocab_size) << "word out of range";
  const double nwt = std::max(
      0.0, topic_word_counts[static_cast<size_t>(topic) * vocab_size +
                             static_cast<size_t>(word)]);
  const double nt = std::max(0.0, topic_totals[static_cast<size_t>(topic)]);
  return (nwt + beta) / (nt + beta * vocab_size);
}

std::vector<int> LdaModel::TopWords(int topic, int k) const {
  std::vector<int> order(static_cast<size_t>(vocab_size));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ca =
        topic_word_counts[static_cast<size_t>(topic) * vocab_size + a];
    const double cb =
        topic_word_counts[static_cast<size_t>(topic) * vocab_size + b];
    return ca != cb ? ca > cb : a < b;
  });
  order.resize(static_cast<size_t>(std::min(k, vocab_size)));
  return order;
}

Result<LdaModel> TrainLda(const Corpus& corpus, const LdaConfig& config) {
  if (corpus.num_documents() == 0) {
    return Status::InvalidArgument("empty corpus");
  }
  if (config.num_topics <= 0) {
    return Status::InvalidArgument("num_topics must be positive");
  }
  if (config.alpha <= 0.0 || config.beta <= 0.0) {
    return Status::InvalidArgument("priors must be positive");
  }
  if (config.num_workers <= 0 || config.num_servers <= 0) {
    return Status::InvalidArgument("need positive worker/server counts");
  }
  const int K = config.num_topics;
  const int V = corpus.vocab_size();
  // Layout: K x V word-topic counts, then K topic totals.
  const int64_t total_dim = static_cast<int64_t>(K) * V + K;

  SspRule rule;  // counts are additive: accumulate is the semantics
  PsOptions ps_opts;
  ps_opts.num_servers = config.num_servers;
  ps_opts.sync = config.sync;
  ParameterServer ps(total_dim, config.num_workers, rule, ps_opts);

  const std::vector<DataShard> shards = SplitData(
      corpus.num_documents(), static_cast<size_t>(config.num_workers),
      ShardingPolicy::kContiguous);
  Rng master_rng(config.seed);
  std::vector<Rng> worker_rngs;
  for (int m = 0; m < config.num_workers; ++m) {
    worker_rngs.push_back(master_rng.Fork(static_cast<uint64_t>(m)));
  }

  RunWorkerThreads(config.num_workers, [&](int m) {
    Rng& rng = worker_rngs[static_cast<size_t>(m)];
    const auto& docs = shards[static_cast<size_t>(m)].example_indices;

    // Local Gibbs state: token assignments and doc-topic counts.
    std::vector<std::vector<int>> z(docs.size());
    std::vector<std::vector<double>> ndt(
        docs.size(), std::vector<double>(static_cast<size_t>(K), 0.0));
    std::vector<double> delta(static_cast<size_t>(total_dim), 0.0);
    std::vector<double> weights(static_cast<size_t>(K), 0.0);

    // One collapsed Gibbs sweep over the shard per clock.
    WorkerLoop loop;
    loop.first_clock = 1;
    loop.end_clock = config.max_clocks + 1;
    loop.compute = [&](int, std::vector<double>* params,
                       SparseVector* update) {
      std::vector<double>& replica = *params;
      std::fill(delta.begin(), delta.end(), 0.0);
      for (size_t di = 0; di < docs.size(); ++di) {
        const auto& words = corpus.document(docs[di]);
        for (size_t i = 0; i < words.size(); ++i) {
          const int w = words[i];
          const int old_t = z[di][i];
          // Remove the token from local views.
          ndt[di][static_cast<size_t>(old_t)] -= 1.0;
          replica[static_cast<size_t>(old_t) * V + w] -= 1.0;
          replica[static_cast<size_t>(K) * V + old_t] -= 1.0;
          delta[static_cast<size_t>(old_t) * V + w] -= 1.0;
          delta[static_cast<size_t>(K) * V + old_t] -= 1.0;
          // Collapsed Gibbs: p(t) ∝ (ndt + α)(nwt + β)/(nt + Vβ). Stale
          // replica counts can be transiently negative; clamp at 0.
          double total = 0.0;
          for (int t = 0; t < K; ++t) {
            const double nwt =
                std::max(0.0, replica[static_cast<size_t>(t) * V + w]);
            const double nt =
                std::max(0.0, replica[static_cast<size_t>(K) * V + t]);
            weights[static_cast<size_t>(t)] =
                (ndt[di][static_cast<size_t>(t)] + config.alpha) *
                (nwt + config.beta) / (nt + config.beta * V);
            total += weights[static_cast<size_t>(t)];
          }
          double u = rng.NextDouble() * total;
          int new_t = K - 1;
          for (int t = 0; t < K; ++t) {
            u -= weights[static_cast<size_t>(t)];
            if (u <= 0.0) {
              new_t = t;
              break;
            }
          }
          z[di][i] = new_t;
          ndt[di][static_cast<size_t>(new_t)] += 1.0;
          replica[static_cast<size_t>(new_t) * V + w] += 1.0;
          replica[static_cast<size_t>(K) * V + new_t] += 1.0;
          delta[static_cast<size_t>(new_t) * V + w] += 1.0;
          delta[static_cast<size_t>(K) * V + new_t] += 1.0;
        }
      }
      *update = SparseVector::FromDense(delta, 0.0);
    };

    // Clock 0: random initialization, pushed as the first update.
    for (size_t di = 0; di < docs.size(); ++di) {
      const auto& words = corpus.document(docs[di]);
      z[di].resize(words.size());
      for (size_t i = 0; i < words.size(); ++i) {
        const int t = static_cast<int>(
            rng.NextUint64(static_cast<uint64_t>(K)));
        z[di][i] = t;
        ndt[di][static_cast<size_t>(t)] += 1.0;
        delta[static_cast<size_t>(t) * V + words[i]] += 1.0;
        delta[static_cast<size_t>(K) * V + t] += 1.0;
      }
    }
    WorkerClient client(m, &ps);
    HETPS_CHECK_OK(client.Push(0, SparseVector::FromDense(delta, 0.0)));
    std::vector<double> replica(static_cast<size_t>(total_dim), 0.0);
    HETPS_CHECK_OK(client.PullBlocking(1, &replica));
    HETPS_CHECK_OK(RunWorker(loop, &client, &replica, nullptr));
  });

  LdaModel model;
  model.num_topics = K;
  model.vocab_size = V;
  const std::vector<double> w = ps.Snapshot();
  model.topic_word_counts.assign(
      w.begin(), w.begin() + static_cast<long>(K) * V);
  model.topic_totals.assign(w.begin() + static_cast<long>(K) * V,
                            w.end());
  return model;
}

}  // namespace hetps
