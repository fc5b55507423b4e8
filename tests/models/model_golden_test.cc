// Single-worker goldens for the PS-backed models: the exact bits of each
// trained parameter vector, pinned as an FNV-1a hash over the IEEE-754
// representation of every value. A single-worker run is deterministic,
// so any change to a model's compute step or to its push/pull schedule
// shows up here as a different hash.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "models/kmeans.h"
#include "models/lda.h"
#include "models/matrix_factorization.h"
#include "util/rng.h"

namespace hetps {
namespace {

uint64_t HashBits(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ULL;
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::vector<double> Concat(const std::vector<double>& a,
                           const std::vector<double>& b) {
  std::vector<double> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

TEST(ModelGoldenTest, MatrixFactorizationSingleWorker) {
  SyntheticRatingsConfig data;
  data.num_users = 30;
  data.num_items = 20;
  data.true_rank = 2;
  data.num_ratings = 400;
  data.seed = 5;
  RatingsDataset d = GenerateSyntheticRatings(data);
  MatrixFactorizationConfig cfg;
  cfg.rank = 3;
  cfg.num_workers = 1;
  cfg.num_servers = 2;
  cfg.max_clocks = 6;
  cfg.learning_rate = 0.05;
  auto model = TrainMatrixFactorization(d, cfg);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const std::vector<double> w =
      Concat(model.value().user_factors, model.value().item_factors);
  ASSERT_EQ(w.size(), 150u);
  EXPECT_EQ(HashBits(w), 0x49559a3e2bf739fbULL) << std::hex << HashBits(w);
}

TEST(ModelGoldenTest, LdaSingleWorker) {
  SyntheticCorpusConfig data;
  data.num_topics = 3;
  data.words_per_topic = 8;
  data.num_documents = 20;
  data.tokens_per_document = 16;
  data.seed = 9;
  const Corpus corpus = GenerateSyntheticCorpus(data);
  LdaConfig cfg;
  cfg.num_topics = 3;
  cfg.num_workers = 1;
  cfg.num_servers = 2;
  cfg.max_clocks = 5;
  auto model = TrainLda(corpus, cfg);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const std::vector<double> w =
      Concat(model.value().topic_word_counts, model.value().topic_totals);
  ASSERT_EQ(w.size(), static_cast<size_t>(3 * corpus.vocab_size() + 3));
  EXPECT_EQ(HashBits(w), 0x25c25d3420f15f80ULL) << std::hex << HashBits(w);
}

TEST(ModelGoldenTest, KMeansSingleWorker) {
  Dataset d;
  Rng rng(4);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 20; ++i) {
      SparseVector x;
      x.PushBack(2 * c, 3.0 + rng.NextGaussian(0.0, 0.3));
      x.PushBack(2 * c + 1, 3.0 + rng.NextGaussian(0.0, 0.3));
      Example ex;
      ex.features = std::move(x);
      ex.label = c;
      d.Add(std::move(ex));
    }
  }
  Rng shuffle(8);
  d.Shuffle(&shuffle);
  KMeansConfig cfg;
  cfg.k = 3;
  cfg.num_workers = 1;
  cfg.num_servers = 2;
  cfg.max_clocks = 5;
  auto model = TrainKMeans(d, cfg);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_EQ(model.value().centroids.size(), 18u);
  EXPECT_EQ(HashBits(model.value().centroids), 0xdc4d801bc000f0bbULL)
      << std::hex << HashBits(model.value().centroids);
}

}  // namespace
}  // namespace hetps
