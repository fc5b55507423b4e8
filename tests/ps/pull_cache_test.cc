// Version-aware pull path: partition content tags, delta encoding,
// client cache coherence, checkpoint-restore invalidation, and tag
// monotonicity under concurrent traffic (run under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "ps/checkpoint.h"
#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "util/rng.h"

namespace hetps {
namespace {

PsOptions MultiPartOptions(SyncPolicy sync, int servers = 2,
                           int parts_per_server = 2) {
  PsOptions opts;
  opts.num_servers = servers;
  opts.partitions_per_server = parts_per_server;
  opts.scheme = PartitionScheme::kRange;
  opts.sync = sync;
  return opts;
}

std::vector<int64_t> TagsOf(const DeltaPullResult& r) {
  std::vector<int64_t> tags;
  for (const PartitionPull& p : r.partitions) tags.push_back(p.tag);
  return tags;
}

TEST(PullDeltaTest, ColdPullShipsEverythingWarmPullShipsNothing) {
  SspRule rule;
  ParameterServer ps(64, 1, rule, MultiPartOptions(SyncPolicy::Asp()));
  ps.Push(0, 0, SparseVector({1, 20, 40, 60}, {1.0, 2.0, 3.0, 4.0}));

  const std::vector<int64_t> cold(
      static_cast<size_t>(ps.num_partitions()), kNoCachedTag);
  const DeltaPullResult first = ps.PullDelta(0, cold);
  ASSERT_EQ(static_cast<int>(first.partitions.size()),
            ps.num_partitions());
  EXPECT_GT(first.bytes_shipped, 0);
  for (const PartitionPull& p : first.partitions) {
    EXPECT_NE(p.encoding, PartitionPull::Encoding::kUnchanged);
    EXPECT_NE(p.tag, kNoCachedTag);
  }

  // Nothing changed: a warm pull ships zero content bytes.
  const DeltaPullResult second = ps.PullDelta(0, TagsOf(first));
  EXPECT_EQ(second.bytes_shipped, 0);
  for (const PartitionPull& p : second.partitions) {
    EXPECT_EQ(p.encoding, PartitionPull::Encoding::kUnchanged);
  }
}

TEST(PullDeltaTest, OnlyDirtyPartitionsShip) {
  SspRule rule;
  ParameterServer ps(64, 1, rule, MultiPartOptions(SyncPolicy::Asp()));
  const std::vector<int64_t> cold(
      static_cast<size_t>(ps.num_partitions()), kNoCachedTag);
  // Seed every partition with content so the cache-less baseline
  // (bytes_full) has something real to ship per partition.
  ps.Push(0, 0, SparseVector({1, 20, 40, 60}, {1.0, 2.0, 3.0, 4.0}));
  const DeltaPullResult warmup = ps.PullDelta(0, cold);

  // Range partitioning: key 2 lands in partition 0 only.
  ps.Push(0, 1, SparseVector({2}, {5.0}));
  const DeltaPullResult after = ps.PullDelta(0, TagsOf(warmup));
  int changed = 0;
  for (const PartitionPull& p : after.partitions) {
    if (p.encoding != PartitionPull::Encoding::kUnchanged) ++changed;
  }
  EXPECT_EQ(changed, 1);
  EXPECT_NE(after.partitions[0].encoding,
            PartitionPull::Encoding::kUnchanged);
  EXPECT_GT(after.bytes_shipped, 0);
  EXPECT_LT(after.bytes_shipped, after.bytes_full);
}

TEST(PullDeltaTest, EmptyPiecePushDoesNotDirtyPartition) {
  // The piece entry point (used by PsService and the event simulator)
  // must agree with the facade: for no-op-on-empty rules an empty piece
  // — common when the §5.3 update filter empties a partition's slice —
  // must not bump the partition's data_version, or every clean partition
  // looks dirty to the pull cache. The clock must still advance when the
  // empty piece finished the update.
  SspRule rule;
  ParameterServer ps(64, 1, rule, MultiPartOptions(SyncPolicy::Asp()));
  ps.Push(0, 0, SparseVector({1, 20, 40, 60}, {1.0, 2.0, 3.0, 4.0}));
  const auto tag0 = [&ps] {
    return ps.PlanPullPiece(0, 0, /*version=*/-1, kNoCachedTag).tag;
  };
  const int64_t tag_before = tag0();
  const int cmin_before = ps.cmin();
  ps.PushPieces(0, 1, {{0, SparseVector()}}, /*finishes_push=*/true);
  EXPECT_EQ(tag0(), tag_before);
  EXPECT_EQ(ps.cmin(), cmin_before + 1);  // clock still advanced
  // A non-empty piece does dirty it.
  ps.PushPieces(0, 2, {{0, SparseVector({3}, {1.0})}},
                /*finishes_push=*/true);
  EXPECT_NE(tag0(), tag_before);
}

TEST(PullDeltaTest, SmallUpdateShipsAsSparseDelta) {
  // A 3-key update against a 512-key partition must travel as a delta
  // (or sparse piece), far below the dense 512 * 8 bytes.
  SspRule rule;
  ParameterServer ps(1024, 1, rule,
                     MultiPartOptions(SyncPolicy::Asp(), 2, 1));
  const std::vector<int64_t> cold(
      static_cast<size_t>(ps.num_partitions()), kNoCachedTag);
  // Make the dense blocks non-trivial so dense wins the first ship.
  std::vector<int64_t> idx;
  std::vector<double> val;
  for (int64_t i = 0; i < 1024; i += 2) {
    idx.push_back(i);
    val.push_back(0.5);
  }
  ps.Push(0, 0, SparseVector(idx, val));
  const DeltaPullResult warmup = ps.PullDelta(0, cold);

  ps.Push(0, 1, SparseVector({3, 9, 11}, {1.0, 1.0, 1.0}));
  const DeltaPullResult after = ps.PullDelta(0, TagsOf(warmup));
  EXPECT_EQ(after.partitions[0].encoding,
            PartitionPull::Encoding::kSparsePatch);
  EXPECT_EQ(after.partitions[0].sparse.nnz(), 3u);
  EXPECT_LT(after.bytes_shipped, 512 * 8);
}

TEST(PullCacheTest, WorkerClientReplicaMatchesFullPullUnderRandomTraffic) {
  // Bit-identical coherence: after any sequence of pushes, the cached
  // client's replica equals a cache-less full pull. Random sparse
  // updates, multiple partitions, many rounds. The later inputs have
  // several workers pushing small values into a wider model — traffic
  // under which a cache that adds logged differences drifts from the
  // server in the last bits — over range and hash partitions.
  struct Traffic {
    int64_t dim;
    int workers;
    int pushers;  // workers 0..pushers-1 push every round
    double scale;
    int rounds;
    uint64_t seed;
    PartitionScheme scheme;
  };
  for (const Traffic& t :
       {Traffic{96, 2, 1, 1.0, 50, 321, PartitionScheme::kRange},
        Traffic{4000, 4, 4, 0.01, 200, 4000, PartitionScheme::kRange},
        Traffic{4000, 4, 4, 0.01, 200, 4000, PartitionScheme::kHash}}) {
    SCOPED_TRACE("dim " + std::to_string(t.dim) + " " +
                 PartitionSchemeName(t.scheme));
    SspRule rule;
    PsOptions opts = MultiPartOptions(SyncPolicy::Asp());
    opts.scheme = t.scheme;
    ParameterServer ps(t.dim, t.workers, rule, opts);
    WorkerClient cached(0, &ps, /*delta_pull=*/true);
    WorkerClient full(1, &ps, /*delta_pull=*/false);
    Rng rng(t.seed);
    std::vector<double> a, b;
    for (int round = 0; round < t.rounds; ++round) {
      for (int m = 0; m < t.pushers; ++m) {
        const int pushes = 1 + static_cast<int>(rng.NextUint64(3));
        for (int k = 0; k < pushes; ++k) {
          std::vector<int64_t> idx;
          std::vector<double> val;
          int64_t key = static_cast<int64_t>(rng.NextUint64(8));
          while (key < t.dim) {
            idx.push_back(key);
            val.push_back((rng.NextDouble() - 0.5) * t.scale);
            key += 1 + static_cast<int64_t>(rng.NextUint64(24));
          }
          ps.Push(m, round * 8 + k, SparseVector(idx, val));
        }
      }
      ASSERT_TRUE(cached.PullBlocking(0, &a).ok());
      ASSERT_TRUE(full.PullBlocking(0, &b).ok());
      ASSERT_EQ(a, b) << "round " << round;
    }
    // The cache actually paid off: shipped less than the full-pull cost.
    EXPECT_LT(cached.pulled_bytes(), cached.pulled_bytes_full());
    EXPECT_EQ(full.pulled_bytes(), full.pulled_bytes_full());
  }
}

int64_t ShippedBytes(const PartitionPull& p) {
  switch (p.encoding) {
    case PartitionPull::Encoding::kUnchanged:
      return 0;
    case PartitionPull::Encoding::kDense:
      return static_cast<int64_t>(p.dense.size() * sizeof(double));
    case PartitionPull::Encoding::kSparse:
    case PartitionPull::Encoding::kSparsePatch:
      break;
  }
  return static_cast<int64_t>(p.sparse.nnz() *
                              (sizeof(int64_t) + sizeof(double)));
}

TEST(PullCacheTest, PlannedBytesEqualShippedBytesUnderRandomTraffic) {
  // The event simulator sizes each pull response with PlanPullPiece and
  // charges the link for exactly those bytes. The plan must agree, tag
  // and byte for byte, with what PullDelta ships for the same cached
  // tags: several workers push dense and sparse updates, each pulls
  // with its own (often stale, sometimes reset) tags, over range and
  // hash partitions, so unchanged, patch, sparse and dense responses
  // all occur. Deferred DynSGD serves w plus its live version summaries
  // (at the stable version under partition_sync), so its plan must be
  // sized from that content.
  DynSgdRule::Options deferred;
  deferred.mode = DynSgdRule::ApplyMode::kDeferred;
  const ConRule con;
  const DynSgdRule dyn(deferred);
  // Which responses each config can give: deferred DynSGD keeps no delta
  // log (no patch), and without partition_sync every push, empty pieces
  // included, changes its live tag (no hit).
  const struct {
    const ConsolidationRule* rule;
    bool partition_sync;
    bool hits;
    bool patches;
  } configs[] = {{&con, false, true, true},
                 {&dyn, true, true, false},
                 {&dyn, false, false, false}};
  for (const auto& config : configs) {
    for (PartitionScheme scheme :
         {PartitionScheme::kRange, PartitionScheme::kHash}) {
      SCOPED_TRACE(config.rule->name() +
                   (config.partition_sync ? " partition_sync / " : " / ") +
                   PartitionSchemeName(scheme));
      PsOptions opts = MultiPartOptions(SyncPolicy::Asp());
      opts.scheme = scheme;
      opts.partition_sync = config.partition_sync;
      const int64_t dim = 2000;
      const int workers = 3;
      ParameterServer ps(dim, workers, *config.rule, opts);
      const size_t parts = static_cast<size_t>(ps.num_partitions());
      std::vector<std::vector<int64_t>> tags(
          static_cast<size_t>(workers),
          std::vector<int64_t>(parts, kNoCachedTag));
      std::vector<int> clocks(static_cast<size_t>(workers), 0);
      int seen[4] = {0, 0, 0, 0};
      Rng rng(99);
      for (int round = 0; round < 120; ++round) {
        const int pusher = static_cast<int>(rng.NextUint64(workers));
        // Mostly a few keys in one window; now and then the whole model.
        const bool wide = rng.NextBernoulli(0.1);
        const int64_t begin =
            wide ? 0 : static_cast<int64_t>(rng.NextUint64(dim - 300));
        const int64_t end = wide ? dim : begin + 300;
        std::vector<int64_t> idx;
        std::vector<double> val;
        for (int64_t key = begin; key < end;
             key +=
             wide ? 1 : 10 + static_cast<int64_t>(rng.NextUint64(60))) {
          idx.push_back(key);
          val.push_back(rng.NextDouble() - 0.5);
        }
        ps.Push(pusher, clocks[static_cast<size_t>(pusher)]++,
                SparseVector(idx, val));
        const int puller = static_cast<int>(rng.NextUint64(workers));
        std::vector<int64_t>& cached = tags[static_cast<size_t>(puller)];
        if (rng.NextBernoulli(0.1)) {
          std::fill(cached.begin(), cached.end(), kNoCachedTag);
        }
        const int64_t version =
            config.partition_sync ? ps.StableVersion() : -1;
        std::vector<PiecePullPlan> plans;
        for (size_t p = 0; p < parts; ++p) {
          plans.push_back(ps.PlanPullPiece(static_cast<int>(p), puller,
                                           version, cached[p]));
        }
        const DeltaPullResult r = ps.PullDelta(puller, cached);
        ASSERT_EQ(r.partitions.size(), parts);
        int64_t planned = 0;
        int64_t planned_full = 0;
        for (size_t p = 0; p < parts; ++p) {
          const PartitionPull& pp = r.partitions[p];
          EXPECT_EQ(plans[p].tag, pp.tag) << "round " << round;
          EXPECT_EQ(plans[p].changed,
                    pp.encoding != PartitionPull::Encoding::kUnchanged);
          EXPECT_EQ(plans[p].bytes, ShippedBytes(pp)) << "round " << round;
          planned += plans[p].bytes;
          planned_full += plans[p].bytes_full;
          ++seen[static_cast<int>(pp.encoding)];
          cached[p] = pp.tag;
        }
        EXPECT_EQ(planned, r.bytes_shipped);
        EXPECT_EQ(planned_full, r.bytes_full);
      }
      const bool expected[4] = {config.hits, true, true, config.patches};
      for (int e = 0; e < 4; ++e) {
        EXPECT_EQ(seen[e] > 0, expected[e]) << "encoding " << e;
      }
    }
  }
}

TEST(PullCacheTest, PullDeltaMatchesPartitionByPartitionReads) {
  // PullDelta is BuildPartitionPull over every partition in order: two
  // servers fed the same traffic, one pulled whole and one read a
  // partition at a time, answer with the same pieces, tags and bytes.
  SspRule rule;
  const PsOptions opts = MultiPartOptions(SyncPolicy::Asp(), 2, 4);
  ParameterServer whole(128, 1, rule, opts);
  ParameterServer by_piece(128, 1, rule, opts);
  const size_t parts = static_cast<size_t>(whole.num_partitions());
  std::vector<int64_t> tags(parts, kNoCachedTag);
  Rng rng(77);
  for (int c = 0; c < 10; ++c) {
    std::vector<int64_t> idx;
    std::vector<double> val;
    for (int64_t key = static_cast<int64_t>(rng.NextUint64(4)); key < 128;
         key += 1 + static_cast<int64_t>(rng.NextUint64(c < 5 ? 16 : 64))) {
      idx.push_back(key);
      val.push_back(rng.NextDouble());
    }
    const SparseVector update(idx, val);
    whole.Push(0, c, update);
    by_piece.Push(0, c, update);
    const DeltaPullResult r = whole.PullDelta(0, tags);
    ASSERT_EQ(r.partitions.size(), parts);
    int64_t bytes = 0;
    for (size_t p = 0; p < parts; ++p) {
      PiecePullPlan plan;
      const PartitionPull b = by_piece.BuildPartitionPull(
          static_cast<int>(p), 0, /*version=*/-1, tags[p], &plan);
      const PartitionPull& a = r.partitions[p];
      EXPECT_EQ(a.partition, b.partition);
      EXPECT_EQ(a.encoding, b.encoding) << "clock " << c << " part " << p;
      EXPECT_EQ(a.tag, b.tag);
      EXPECT_EQ(a.base_tag, b.base_tag);
      EXPECT_EQ(a.dense, b.dense);
      EXPECT_TRUE(a.sparse == b.sparse);
      EXPECT_EQ(plan.bytes, ShippedBytes(b));
      bytes += plan.bytes;
      tags[p] = a.tag;
    }
    EXPECT_EQ(r.bytes_shipped, bytes);
  }
  EXPECT_EQ(whole.Snapshot(), by_piece.Snapshot());
}

TEST(PullCacheTest, TrainerMutatingItsReplicaDoesNotPoisonTheCache) {
  // The trainer scribbles on the replica it was handed (local SGD).
  // The client's pristine cache must be unaffected: the next pull still
  // reconstructs the true server state.
  SspRule rule;
  ParameterServer ps(32, 1, rule, MultiPartOptions(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  ps.Push(0, 0, SparseVector({0, 16}, {1.0, 2.0}));
  std::vector<double> replica;
  client.PullBlocking(0, &replica);
  for (auto& v : replica) v = 99.0;  // trainer-side mutation
  ps.Push(0, 1, SparseVector({1}, {3.0}));
  client.PullBlocking(0, &replica);
  EXPECT_EQ(replica, ps.Snapshot());
}

TEST(PullCacheTest, CheckpointRestoreInvalidatesClientTags) {
  // Restoring a checkpoint rewinds shard state; the pull epoch bump must
  // invalidate every cached tag, or a client whose tag happens to match
  // the restored data_version would keep stale content forever.
  SspRule rule;
  ParameterServer ps(32, 1, rule, MultiPartOptions(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  ps.Push(0, 0, SparseVector({4}, {1.0}));
  std::vector<double> replica;
  client.PullBlocking(0, &replica);  // warm cache at version 1

  const std::string path =
      testing::TempDir() + "/hetps_pull_cache_ckpt.txt";
  ASSERT_TRUE(SaveCheckpointToFile(ps, path).ok());

  // Diverge, then rewind. The restored shard has the same push count as
  // the checkpoint (data_version collides with a pre-restore tag).
  ps.Push(0, 1, SparseVector({4, 5}, {10.0, 20.0}));
  client.PullBlocking(0, &replica);
  ASSERT_DOUBLE_EQ(replica[4], 11.0);
  ASSERT_TRUE(RestoreCheckpointFromFile(&ps, path).ok());
  std::remove(path.c_str());

  client.PullBlocking(0, &replica);
  EXPECT_EQ(replica, ps.Snapshot());
  EXPECT_DOUBLE_EQ(replica[4], 1.0);
  EXPECT_DOUBLE_EQ(replica[5], 0.0);
}

TEST(PullCacheTest, ObservedPartitionVersionsNeverRegress) {
  // Monotonicity under concurrent pushes (ASP): across successive pulls
  // a worker must never observe a partition *older* than one it already
  // pulled. Live tags encode the shard's push count, so within one epoch
  // TagValue must be non-decreasing per partition. This is also the TSan
  // workout for partition reads racing piece applies.
  SspRule rule;
  ParameterServer ps(64, 3, rule, MultiPartOptions(SyncPolicy::Asp()));
  std::atomic<bool> stop{false};
  std::vector<std::thread> pushers;
  for (int w = 1; w <= 2; ++w) {
    pushers.emplace_back([&ps, &stop, w] {
      Rng rng(static_cast<uint64_t>(w) * 17);
      int clock = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<int64_t> idx;
        std::vector<double> val;
        for (int64_t key = static_cast<int64_t>(rng.NextUint64(8));
             key < 64; key += 8 + static_cast<int64_t>(rng.NextUint64(8))) {
          idx.push_back(key);
          val.push_back(1e-3);
        }
        ps.Push(w, clock++, SparseVector(idx, val));
      }
    });
  }
  WorkerClient client(0, &ps);
  std::vector<double> replica;
  std::vector<int64_t> prev(static_cast<size_t>(ps.num_partitions()),
                            -1);
  for (int pull = 0; pull < 200; ++pull) {
    client.PullBlocking(0, &replica);
    const std::vector<int64_t>& tags = client.cached_tags();
    ASSERT_EQ(static_cast<int>(tags.size()), ps.num_partitions());
    for (size_t p = 0; p < tags.size(); ++p) {
      ASSERT_FALSE(ParameterServer::TagIsVersioned(tags[p]));
      const int64_t v = ParameterServer::TagValue(tags[p]);
      EXPECT_GE(v, prev[p]) << "partition " << p << " regressed";
      prev[p] = v;
    }
  }
  stop.store(true);
  for (auto& t : pushers) t.join();
}

TEST(PullCacheTest, SspWorkerNeverObservesStateOlderThanAlreadyPulled) {
  // Same monotonicity property under SSP with real admission gating:
  // worker 0 pulls between clocks while worker 1 races ahead within the
  // staleness window.
  SspRule rule;
  ParameterServer ps(64, 2, rule,
                     MultiPartOptions(SyncPolicy::Ssp(3)));
  std::thread peer([&ps] {
    for (int c = 0; c < 40; ++c) {
      ps.Push(1, c, SparseVector({static_cast<int64_t>(c % 64)}, {1.0}));
      ps.WaitUntilCanAdvance(1, c + 1);
    }
  });
  WorkerClient client(0, &ps);
  std::vector<double> replica;
  std::vector<int64_t> prev(static_cast<size_t>(ps.num_partitions()),
                            -1);
  for (int c = 0; c < 40; ++c) {
    ps.Push(0, c, SparseVector({1}, {1e-3}));
    ps.WaitUntilCanAdvance(0, c + 1);
    client.PullBlocking(c + 1, &replica);
    const std::vector<int64_t>& tags = client.cached_tags();
    for (size_t p = 0; p < tags.size(); ++p) {
      const int64_t v = ParameterServer::TagValue(tags[p]);
      EXPECT_GE(v, prev[p]);
      prev[p] = v;
    }
  }
  peer.join();
}

}  // namespace
}  // namespace hetps
