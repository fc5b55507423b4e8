#include "ps/server_shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <string>
#include <vector>

#include "core/dyn_sgd.h"
#include "util/rng.h"

namespace hetps {
namespace {

TEST(ServerShardTest, PushAppliesRule) {
  ConRule proto(0.5);
  ServerShard shard(0, 4, proto, 2);
  shard.Push(0, 0, SparseVector({1}, {2.0}));
  EXPECT_DOUBLE_EQ(shard.param().At(1), 1.0);
  EXPECT_EQ(shard.push_count(), 1);
}

TEST(ServerShardTest, PeekReturnsDenseBlock) {
  SspRule proto;
  ServerShard shard(3, 3, proto, 1);
  shard.Push(0, 0, SparseVector({0, 2}, {1.0, 3.0}));
  const auto block = shard.Peek();
  ASSERT_EQ(block.size(), 3u);
  EXPECT_DOUBLE_EQ(block[0], 1.0);
  EXPECT_DOUBLE_EQ(block[2], 3.0);
  EXPECT_EQ(shard.shard_id(), 3);
}

TEST(ServerShardTest, PeekDoesNotStampPullState) {
  DynSgdRule::Options opts;
  opts.version_mode = DynSgdRule::VersionMode::kAlgorithm2;
  DynSgdRule proto(opts);
  ServerShard shard(0, 2, proto, 2);
  shard.Push(0, 0, SparseVector({0}, {1.0}));
  const auto* rule = static_cast<const DynSgdRule*>(&shard.rule());
  const int64_t v_before = rule->WorkerVersion(1);
  shard.Peek();
  EXPECT_EQ(rule->WorkerVersion(1), v_before);
  shard.StampPull(1, /*cmax=*/1);
  EXPECT_NE(rule->WorkerVersion(1), v_before);
}

TEST(ServerShardTest, VersionedPullWithDeferredDyn) {
  DynSgdRule::Options opts;
  opts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule proto(opts);
  ServerShard shard(0, 1, proto, 2);
  shard.Push(0, 0, SparseVector({0}, {4.0}));  // version 0
  shard.Push(0, 1, SparseVector({0}, {6.0}));  // version 1
  EXPECT_EQ(shard.CurrentVersion(), 2);
  EXPECT_DOUBLE_EQ(shard.rule().MaterializeAtVersion(shard.param(), 1)[0],
                   4.0);
  EXPECT_DOUBLE_EQ(shard.rule().MaterializeAtVersion(shard.param(), 2)[0],
                   10.0);
}

TEST(ServerShardTest, MemoryAccounting) {
  DynSgdRule proto;
  ServerShard shard(0, 100, proto, 2);
  EXPECT_EQ(shard.ParamMemoryBytes(), 100 * sizeof(double));
  const size_t aux0 = shard.AuxMemoryBytes();
  shard.Push(0, 0, SparseVector({0, 1, 2}, {1.0, 1.0, 1.0}));
  EXPECT_GT(shard.AuxMemoryBytes(), aux0);
}

TEST(ServerShardTest, RuleCloneIsPerShard) {
  DynSgdRule proto;
  ServerShard a(0, 2, proto, 2);
  ServerShard b(1, 2, proto, 2);
  a.Push(0, 0, SparseVector({0}, {1.0}));
  EXPECT_DOUBLE_EQ(b.param().At(0), 0.0);
  EXPECT_EQ(b.push_count(), 0);
}

TEST(ServerShardTest, BoundedDeltaSinceMatchesSetUnionReference) {
  // Random key sets pushed into shards with short logs. For random
  // from_version values and key limits, DeltaSince must return the
  // std::set_union of the keys pushed since from_version whenever that
  // union has fewer keys than the limit, and false otherwise. It must
  // also return false whenever the log's oldest entry is newer than
  // from_version + 1 (evicted by depth or by the dim + 4 key cap).
  Rng rng(2024);
  const double densities[] = {0.0, 0.02, 0.1, 0.5, 1.0};
  for (int trial = 0; trial < 24; ++trial) {
    const size_t dim = 1 + static_cast<size_t>(rng.NextUint64(300));
    const int depth = 1 + static_cast<int>(rng.NextUint64(12));
    SCOPED_TRACE("dim " + std::to_string(dim) + " depth " +
                 std::to_string(depth));
    ConRule proto;
    ServerShard shard(0, dim, proto, 1, depth);
    std::vector<std::vector<int64_t>> pushed;  // [v - 1]: version v's keys
    std::deque<size_t> retained;               // key counts, oldest first
    size_t retained_keys = 0;
    int64_t oldest = 1;
    for (int64_t v = 1; v <= 40; ++v) {
      const double density = densities[rng.NextUint64(5)];
      std::vector<int64_t> keys;
      for (size_t k = 0; k < dim; ++k) {
        if (rng.NextBernoulli(density)) {
          keys.push_back(static_cast<int64_t>(k));
        }
      }
      shard.Push(0, static_cast<int>(v - 1),
                 SparseVector(keys, std::vector<double>(keys.size(), 1.0)));
      ASSERT_EQ(shard.data_version(), v);
      pushed.push_back(keys);
      retained.push_back(keys.size());
      retained_keys += keys.size();
      while (retained.size() > static_cast<size_t>(depth) ||
             retained_keys > dim + 4) {
        retained_keys -= retained.front();
        retained.pop_front();
        ++oldest;
        if (retained.empty()) break;
      }
      for (int q = 0; q < 8; ++q) {
        const int64_t from = static_cast<int64_t>(rng.NextUint64(
            static_cast<uint64_t>(v) + 2));
        const size_t limit = static_cast<size_t>(rng.NextUint64(dim + 8));
        bool covered = from <= v && (from == v || oldest <= from + 1);
        std::vector<int64_t> want;
        for (int64_t u = from + 1; covered && u <= v; ++u) {
          const std::vector<int64_t>& add =
              pushed[static_cast<size_t>(u - 1)];
          std::vector<int64_t> merged;
          std::set_union(want.begin(), want.end(), add.begin(), add.end(),
                         std::back_inserter(merged));
          want.swap(merged);
        }
        const bool fits = covered && want.size() < limit;
        std::vector<int64_t> got = {-1};
        EXPECT_EQ(shard.DeltaSince(from, limit, &got), fits)
            << "version " << v << " from " << from << " limit " << limit;
        if (fits) {
          EXPECT_EQ(got, want) << "version " << v << " from " << from;
        }
      }
    }
  }
}

TEST(ServerShardTest, DeltaSinceIsOffForRulesThatTouchMoreThanTheUpdate) {
  DynSgdRule proto;
  ServerShard shard(0, 8, proto, 1);
  shard.Push(0, 0, SparseVector({1}, {1.0}));
  std::vector<int64_t> keys;
  EXPECT_FALSE(shard.DeltaSince(0, 8, &keys));
}

}  // namespace
}  // namespace hetps
