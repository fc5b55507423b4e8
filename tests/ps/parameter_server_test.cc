#include "ps/parameter_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dyn_sgd.h"
#include "obs/metrics.h"
#include "ps/worker_client.h"
#include "util/rng.h"

namespace hetps {
namespace {

PsOptions SmallOptions() {
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.sync = SyncPolicy::Ssp(1);
  return opts;
}

// A whole-model pull, as a cache-less client issues it.
std::vector<double> PullWhole(ParameterServer* ps, int worker,
                              int* cmin = nullptr) {
  WorkerClient client(worker, ps, /*delta_pull=*/false);
  std::vector<double> w;
  EXPECT_TRUE(client.Pull(&w, cmin).ok());
  return w;
}

TEST(ParameterServerTest, PushThenSnapshotRoundTrips) {
  SspRule rule;
  ParameterServer ps(10, 2, rule, SmallOptions());
  SparseVector u({0, 4, 9}, {1.0, 2.0, 3.0});
  ps.Push(0, 0, u);
  const auto w = ps.Snapshot();
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[4], 2.0);
  EXPECT_DOUBLE_EQ(w[9], 3.0);
  EXPECT_DOUBLE_EQ(w[5], 0.0);
}

TEST(ParameterServerTest, WholeModelPullReturnsAssembledVectorAndCmin) {
  SspRule rule;
  ParameterServer ps(10, 2, rule, SmallOptions());
  ps.Push(0, 0, SparseVector({3}, {7.0}));
  ps.Push(1, 0, SparseVector({8}, {1.0}));
  int cmin = -1;
  const auto w = PullWhole(&ps, 0, &cmin);
  EXPECT_DOUBLE_EQ(w[3], 7.0);
  EXPECT_DOUBLE_EQ(w[8], 1.0);
  EXPECT_EQ(cmin, 1);  // both workers finished clock 0
}

TEST(ParameterServerTest, ClockAccounting) {
  SspRule rule;
  ParameterServer ps(4, 3, rule, SmallOptions());
  EXPECT_EQ(ps.cmin(), 0);
  ps.Push(0, 0, SparseVector());
  ps.Push(0, 1, SparseVector());
  EXPECT_EQ(ps.cmax(), 2);
  EXPECT_EQ(ps.cmin(), 0);
  ps.Push(1, 0, SparseVector());
  ps.Push(2, 0, SparseVector());
  EXPECT_EQ(ps.cmin(), 1);
}

TEST(ParameterServerTest, CanAdvanceFollowsPolicy) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Ssp(1);
  ParameterServer ps(4, 2, rule, opts);
  EXPECT_TRUE(ps.CanAdvance(0, 1));
  EXPECT_FALSE(ps.CanAdvance(0, 2));
  ps.Push(0, 0, SparseVector());
  ps.Push(1, 0, SparseVector());
  EXPECT_TRUE(ps.CanAdvance(0, 2));
}

TEST(ParameterServerTest, WaitUntilCanAdvanceWakesOnPush) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Bsp();
  ParameterServer ps(4, 2, rule, opts);
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  std::thread waiter([&] { ps.WaitUntilCanAdvance(0, 1); });
  // Worker 1's push completes the barrier and must wake the waiter.
  ps.Push(1, 0, SparseVector({1}, {1.0}));
  waiter.join();
  SUCCEED();
}

TEST(ParameterServerTest, UpdateFilterDropsTinyEntries) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.update_filter_epsilon = 1e-6;
  ParameterServer ps(4, 1, rule, opts);
  ps.Push(0, 0, SparseVector({0, 1}, {1e-9, 0.5}));
  const auto w = ps.Snapshot();
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
}

TEST(ParameterServerTest, TotalPushesSkipsEmptyPiecesForNoOpRules) {
  SspRule rule;
  ParameterServer ps(10, 1, rule, SmallOptions());
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  // SspRule declares EmptyPushIsNoOp(): the single-key push touches one
  // partition; the three empty pieces are skipped entirely.
  EXPECT_EQ(ps.TotalPushes(), 1);
  // The clock still advanced exactly once.
  EXPECT_EQ(ps.cmax(), 1);
  ps.Push(0, 1, SparseVector({0, 3, 5, 8}, {1.0, 1.0, 1.0, 1.0}));
  // A push spanning all four partitions counts four pieces.
  EXPECT_EQ(ps.TotalPushes(), 5);
}

TEST(ParameterServerTest, FilterEmptiedPiecesAreSkippedButClockAdvances) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.update_filter_epsilon = 1e-6;
  ParameterServer ps(10, 1, rule, opts);
  // Every entry is below epsilon: the whole push is filtered away.
  ps.Push(0, 0, SparseVector({0, 3, 5, 8}, {1e-9, 1e-9, 1e-9, 1e-9}));
  EXPECT_EQ(ps.TotalPushes(), 0);
  // The worker still finished clock 0 — SSP admission must not stall.
  EXPECT_EQ(ps.cmax(), 1);
  EXPECT_EQ(ps.cmin(), 1);
  EXPECT_TRUE(ps.CanAdvance(0, 2));
}

TEST(ParameterServerTest, EmptyPiecesStillCountForVersionTrackingRules) {
  // DynSGD treats an empty piece as the "worker finished this clock
  // here" marker the stable-version bookkeeping counts, so pieces are
  // not skipped.
  DynSgdRule rule;
  ParameterServer ps(10, 1, rule, SmallOptions());
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  EXPECT_EQ(ps.TotalPushes(), 4);
}

TEST(ParameterServerTest, ReadmittedWorkerMayPushAtItsReadmitClock) {
  // Regression (liveness x DynSGD): worker 0 pushes clock 0, is evicted,
  // and rejoins at cmin = 0 (the survivors have not pushed yet). Its
  // V(0) = 1 from the dead regime must be rebased to the readmission
  // clock — otherwise the survivors' clock-0 pushes raise the all-worker
  // version minimum to 1, version 0 is folded, and worker 0's legitimate
  // push at its admitted clock aborts the server.
  DynSgdRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Asp();
  ParameterServer ps(10, 3, rule, opts);
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  ASSERT_TRUE(ps.EvictWorker(0));
  ASSERT_EQ(ps.cmin(), 0);
  ASSERT_TRUE(ps.ReadmitWorker(0, ps.cmin()).ok());
  ps.Push(1, 0, SparseVector({1}, {1.0}));
  ps.Push(2, 0, SparseVector({2}, {1.0}));
  // Without the rebase this push dies on DynSGD's evicted-version check.
  ps.Push(0, 0, SparseVector({3}, {1.0}));
  EXPECT_TRUE(ps.IsWorkerLive(0));
  EXPECT_EQ(ps.cmin(), 1);
}

TEST(ParameterServerTest, MasterSeesCompletedVersions) {
  DynSgdRule rule;
  PsOptions opts = SmallOptions();
  opts.partition_sync = true;
  ParameterServer ps(8, 2, rule, opts);
  EXPECT_EQ(ps.StableVersion(), 0);
  ps.Push(0, 0, SparseVector({0, 7}, {1.0, 1.0}));
  // Version 0 is not complete until both workers contributed.
  EXPECT_EQ(ps.StableVersion(), 0);
  ps.Push(1, 0, SparseVector({3}, {1.0}));
  EXPECT_EQ(ps.StableVersion(), 1);
}

TEST(ParameterServerTest, PartitionSyncPullUsesStableVersion) {
  DynSgdRule::Options dopts;
  dopts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule rule(dopts);
  PsOptions opts;
  opts.num_servers = 1;
  opts.partitions_per_server = 2;
  opts.partition_sync = true;
  ParameterServer ps(2, 2, rule, opts);
  // Both workers complete clock 0 on both partitions.
  for (int worker = 0; worker < 2; ++worker) {
    const auto pieces = ps.partitioner().SplitByPartition(
        SparseVector({0, 1}, {1.0, 2.0}));
    for (int p = 0; p < 2; ++p) {
      ps.PushPieces(worker, 0, {{p, pieces[static_cast<size_t>(p)]}},
                    /*finishes_push=*/p == 1);
    }
  }
  EXPECT_EQ(ps.StableVersion(), 1);
  // Worker 0's clock-1 piece reaches only the partition of key 0; the
  // other piece is still in flight.
  const int hot = ps.partitioner().PartitionOf(0);
  const auto pieces2 =
      ps.partitioner().SplitByPartition(SparseVector({0}, {10.0}));
  ps.PushPieces(0, 1, {{hot, pieces2[static_cast<size_t>(hot)]}},
                /*finishes_push=*/false);
  // A synchronized pull serves the consistent clock-0 state, ignoring
  // the in-flight clock-1 fragment.
  const auto w = PullWhole(&ps, 1);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 2.0);
}

TEST(ParameterServerTest, MemoryAccountingAggregatesShards) {
  DynSgdRule rule;
  ParameterServer ps(100, 2, rule, SmallOptions());
  EXPECT_EQ(ps.ParamMemoryBytes(), 100 * sizeof(double));
  const size_t before = ps.AuxMemoryBytes();
  ps.Push(0, 0, SparseVector({0, 50}, {1.0, 1.0}));
  EXPECT_GT(ps.AuxMemoryBytes(), before);
}

TEST(ParameterServerTest, ConcurrentPushesAreSafe) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Asp();
  ParameterServer ps(32, 4, rule, opts);
  std::vector<std::thread> threads;
  for (int m = 0; m < 4; ++m) {
    threads.emplace_back([&ps, m] {
      for (int c = 0; c < 50; ++c) {
        SparseVector u;
        u.PushBack(m, 1.0);
        u.PushBack(16 + m, 1.0);
        ps.Push(m, c, u);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto w = ps.Snapshot();
  for (int m = 0; m < 4; ++m) {
    EXPECT_DOUBLE_EQ(w[static_cast<size_t>(m)], 50.0);
    EXPECT_DOUBLE_EQ(w[static_cast<size_t>(16 + m)], 50.0);
  }
  EXPECT_EQ(ps.cmin(), 50);
}

TEST(ParameterServerTest, EvictionUnblocksWaitingSurvivor) {
  // The liveness hole end to end at PS granularity: under SSP(1) with
  // two workers, worker 1 dies at clock 0 while worker 0 runs ahead and
  // blocks at the admission gate. EvictWorker must repair cmin and wake
  // the blocked survivor — without it this test would hang forever.
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Ssp(1);
  ParameterServer ps(4, 2, rule, opts);
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  ps.Push(0, 1, SparseVector({0}, {1.0}));
  ASSERT_FALSE(ps.CanAdvance(0, 2));  // worker 1 pins cmin at 0
  const int64_t repairs_before =
      GlobalMetrics().counter("ps.cmin_repairs")->value();
  std::atomic<bool> admitted{false};
  std::thread waiter([&] { admitted = ps.WaitUntilCanAdvance(0, 2); });
  EXPECT_TRUE(ps.EvictWorker(1));
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(ps.cmin(), 2);
  EXPECT_FALSE(ps.IsWorkerLive(1));
  EXPECT_EQ(ps.num_live_workers(), 1);
  EXPECT_EQ(GlobalMetrics().counter("ps.cmin_repairs")->value(),
            repairs_before + 1);
  // Evicting again is a no-op.
  EXPECT_FALSE(ps.EvictWorker(1));
}

TEST(ParameterServerTest, VictimsOwnWaitReturnsNotAdmitted) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Ssp(1);
  ParameterServer ps(4, 2, rule, opts);
  ps.Push(1, 0, SparseVector());
  ps.Push(1, 1, SparseVector());
  // Worker 1 blocks at clock 2 (worker 0 is behind), then gets evicted:
  // its wait must return false (not admitted), never true.
  std::atomic<bool> admitted{true};
  std::thread victim([&] { admitted = ps.WaitUntilCanAdvance(1, 2); });
  EXPECT_TRUE(ps.EvictWorker(1));
  victim.join();
  EXPECT_FALSE(admitted.load());
  // And once evicted, the fast path refuses immediately too.
  EXPECT_FALSE(ps.WaitUntilCanAdvance(1, 2));
  EXPECT_FALSE(ps.CanAdvance(1, 1));
}

TEST(ParameterServerTest, EvictedPushesAreDroppedAndCounted) {
  SspRule rule;
  ParameterServer ps(4, 2, rule, SmallOptions());
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  ASSERT_TRUE(ps.EvictWorker(1));
  const int64_t dropped_before =
      GlobalMetrics().counter("ps.evicted_pushes_dropped")->value();
  // A late push from the dead worker: state and clocks must not move.
  ps.Push(1, 0, SparseVector({1}, {5.0}));
  EXPECT_DOUBLE_EQ(ps.Snapshot()[1], 0.0);
  EXPECT_EQ(ps.cmin(), 1);
  EXPECT_EQ(GlobalMetrics().counter("ps.evicted_pushes_dropped")->value(),
            dropped_before + 1);
}

TEST(ParameterServerTest, ReadmitRestoresMembership) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Ssp(1);
  ParameterServer ps(4, 2, rule, opts);
  ps.Push(0, 0, SparseVector());
  ps.EvictWorker(1);
  ASSERT_EQ(ps.cmin(), 1);
  EXPECT_TRUE(ps.ReadmitWorker(1, ps.cmin()).ok());
  EXPECT_TRUE(ps.IsWorkerLive(1));
  EXPECT_EQ(ps.num_live_workers(), 2);
  // The readmitted worker participates in the gate again: its pushes
  // count and it pins cmin until it catches up.
  ps.Push(0, 1, SparseVector());
  EXPECT_EQ(ps.cmin(), 1);
  ps.Push(1, 1, SparseVector());
  EXPECT_EQ(ps.cmin(), 2);
  // Readmitting a live worker is rejected, not applied twice.
  EXPECT_TRUE(ps.ReadmitWorker(1, ps.cmin()).IsFailedPrecondition());
}

// Regression: a rejoin clock behind cmin used to abort the whole server
// via a hard CHECK inside ClockTable. It is client-controlled input, so
// it must come back as FailedPrecondition with the table untouched.
TEST(ParameterServerTest, ReadmitBehindCminIsFailedPrecondition) {
  SspRule rule;
  PsOptions opts = SmallOptions();
  opts.sync = SyncPolicy::Ssp(1);
  ParameterServer ps(4, 2, rule, opts);
  for (int c = 0; c < 3; ++c) {
    ps.Push(0, c, SparseVector());
    ps.Push(1, c, SparseVector());
  }
  ps.EvictWorker(1);
  ASSERT_EQ(ps.cmin(), 3);
  const Status st = ps.ReadmitWorker(1, 1);
  EXPECT_TRUE(st.IsFailedPrecondition());
  EXPECT_NE(st.message().find("cmin"), std::string::npos);
  EXPECT_FALSE(ps.IsWorkerLive(1));
  // Retrying at the frontier succeeds.
  EXPECT_TRUE(ps.ReadmitWorker(1, ps.cmin()).ok());
  EXPECT_TRUE(ps.IsWorkerLive(1));
}

TEST(ParameterServerTest, PushTimesEachAppliedPieceOnItsPartition) {
  // Every applied piece records one lock-wait and one apply sample on
  // its own partition's histograms; a skipped empty piece records none.
  MetricsRegistry registry;
  PsOptions opts = SmallOptions();
  opts.metrics = &registry;
  SspRule rule;
  ParameterServer ps(10, 1, rule, opts);
  const int touched = ps.partitioner().PartitionOf(0);
  ps.Push(0, 0, SparseVector({0}, {1.0}));
  for (int p = 0; p < ps.num_partitions(); ++p) {
    const MetricLabels labels = {{"partition", std::to_string(p)}};
    const int64_t expected = p == touched ? 1 : 0;
    EXPECT_EQ(registry.histogram("ps.push_apply_us", labels)->count(),
              expected)
        << "partition " << p;
    EXPECT_EQ(registry.histogram("ps.push_lock_wait_us", labels)->count(),
              expected)
        << "partition " << p;
  }
  EXPECT_EQ(registry.counter("push.pieces")->value(), 1);
  EXPECT_EQ(registry.counter("ps.push.count")->value(), 1);
}

TEST(ParameterServerTest, PullDeltaTimesEveryPartitionReadCacheHitsToo) {
  // A pull reads every partition once, and a cache hit is still a read:
  // each one records a ps.pull_piece_us sample and a ps.pull.count.
  MetricsRegistry registry;
  PsOptions opts = SmallOptions();
  opts.metrics = &registry;
  SspRule rule;
  ParameterServer ps(10, 1, rule, opts);
  ps.Push(0, 0, SparseVector({0, 3, 5, 8}, {1.0, 2.0, 3.0, 4.0}));
  const DeltaPullResult cold = ps.PullDelta(0, {});
  std::vector<int64_t> tags;
  for (const PartitionPull& piece : cold.partitions) tags.push_back(piece.tag);
  const DeltaPullResult warm = ps.PullDelta(0, tags);
  EXPECT_EQ(warm.bytes_shipped, 0);
  const int64_t parts = ps.num_partitions();
  for (int p = 0; p < ps.num_partitions(); ++p) {
    EXPECT_EQ(registry
                  .histogram("ps.pull_piece_us",
                             {{"partition", std::to_string(p)}})
                  ->count(),
              2)
        << "partition " << p;
  }
  EXPECT_EQ(registry.counter("ps.pull.count")->value(), 2 * parts);
  EXPECT_EQ(registry.counter("pull.cache_hit")->value(), parts);
  EXPECT_EQ(registry.counter("pull.partitions_shipped")->value(), parts);
}

TEST(ParameterServerTest, PullDeltaReturnsEveryPartitionInOrder) {
  SspRule rule;
  ParameterServer ps(10, 2, rule, SmallOptions());
  ps.Push(0, 0, SparseVector({1, 6}, {1.0, 2.0}));
  ps.Push(1, 0, SparseVector({2}, {3.0}));
  const DeltaPullResult r = ps.PullDelta(1, {});
  ASSERT_EQ(static_cast<int>(r.partitions.size()), ps.num_partitions());
  for (int p = 0; p < ps.num_partitions(); ++p) {
    EXPECT_EQ(r.partitions[static_cast<size_t>(p)].partition, p);
  }
  EXPECT_EQ(r.cmin, 1);
}

TEST(ParameterServerTest, ShortTagVectorIsPaddedWithNoCachedTag) {
  // Tags past the end of a short vector count as kNoCachedTag: those
  // partitions ship whole, the listed one is answered from its tag.
  SspRule rule;
  ParameterServer ps(10, 1, rule, SmallOptions());
  ps.Push(0, 0, SparseVector({0, 3, 5, 8}, {1.0, 2.0, 3.0, 4.0}));
  const DeltaPullResult cold = ps.PullDelta(0, {});
  const DeltaPullResult padded = ps.PullDelta(0, {cold.partitions[0].tag});
  ASSERT_EQ(padded.partitions.size(), cold.partitions.size());
  EXPECT_EQ(padded.partitions[0].encoding,
            PartitionPull::Encoding::kUnchanged);
  for (size_t p = 1; p < padded.partitions.size(); ++p) {
    EXPECT_NE(padded.partitions[p].encoding,
              PartitionPull::Encoding::kUnchanged)
        << "partition " << p;
    EXPECT_EQ(padded.partitions[p].tag, cold.partitions[p].tag);
  }
  EXPECT_EQ(padded.bytes_full, cold.bytes_full);
  EXPECT_LT(padded.bytes_shipped, cold.bytes_shipped);
}

TEST(ParameterServerTest, PushPiecesAdvancesTheClockOnlyOnTheFinishingCall) {
  // One logical push may arrive as several PushPieces calls (the
  // simulator delivers a piece per message). Each call's pieces apply
  // at once; the clock moves only when the finishing call lands.
  SspRule rule;
  ParameterServer ps(10, 1, rule, SmallOptions());
  std::vector<std::pair<int, SparseVector>> pieces;
  for (int p = 0; p < ps.num_partitions(); ++p) {
    pieces.emplace_back(p, SparseVector({0}, {1.0 + p}));
  }
  ps.PushPieces(0, 0, {pieces[0], pieces[1]}, /*finishes_push=*/false);
  EXPECT_EQ(ps.cmax(), 0);
  EXPECT_EQ(ps.TotalPushes(), 2);
  ps.PushPieces(0, 0, {pieces[2], pieces[3]}, /*finishes_push=*/true);
  EXPECT_EQ(ps.cmax(), 1);
  EXPECT_EQ(ps.TotalPushes(), 4);
  const std::vector<double> w = ps.Snapshot();
  for (int p = 0; p < ps.num_partitions(); ++p) {
    const int64_t key = ps.partitioner().GlobalIndex(p, 0);
    EXPECT_DOUBLE_EQ(w[static_cast<size_t>(key)], 1.0 + p);
  }
}

TEST(ParameterServerTest, EvictedPiecePushIsCountedOnceOnTheFinishingCall) {
  MetricsRegistry registry;
  PsOptions opts = SmallOptions();
  opts.metrics = &registry;
  SspRule rule;
  ParameterServer ps(10, 2, rule, opts);
  ASSERT_TRUE(ps.EvictWorker(1));
  Counter* dropped = registry.counter("ps.evicted_pushes_dropped");
  const std::vector<std::pair<int, SparseVector>> piece = {
      {ps.partitioner().PartitionOf(2), SparseVector({2}, {5.0})}};
  ps.PushPieces(1, 0, piece, /*finishes_push=*/false);
  EXPECT_EQ(dropped->value(), 0);
  ps.PushPieces(1, 0, piece, /*finishes_push=*/true);
  EXPECT_EQ(dropped->value(), 1);
  EXPECT_EQ(ps.TotalPushes(), 0);
  EXPECT_DOUBLE_EQ(ps.Snapshot()[2], 0.0);
  EXPECT_EQ(ps.cmax(), 0);
}

TEST(ParameterServerTest, PartitionCountDoesNotChangeAppliedState) {
  // A push applies piece by piece, each piece local to its shard, so
  // the same push sequence lands on the same model whether it is split
  // over one partition or eight.
  DynSgdRule rule;
  auto run = [&rule](int servers, int parts_per_server) {
    PsOptions opts;
    opts.num_servers = servers;
    opts.partitions_per_server = parts_per_server;
    opts.sync = SyncPolicy::Asp();
    ParameterServer ps(128, 2, rule, opts);
    Rng rng(9);
    for (int c = 0; c < 20; ++c) {
      for (int m = 0; m < 2; ++m) {
        SparseVector u;
        for (int64_t j = 0; j < ps.dim(); ++j) {
          if (rng.NextBernoulli(0.2)) u.PushBack(j, 0.1 * (m + 1));
        }
        ps.Push(m, c, u);
      }
    }
    EXPECT_EQ(ps.cmin(), 20);
    return ps.Snapshot();
  };
  const std::vector<double> one = run(1, 1);
  const std::vector<double> eight = run(2, 4);
  ASSERT_EQ(one.size(), eight.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_DOUBLE_EQ(one[i], eight[i]) << "index " << i;
  }
}

TEST(ParameterServerTest, DebugStringDescribesSetup) {
  SspRule rule;
  ParameterServer ps(10, 2, rule, SmallOptions());
  const std::string s = ps.DebugString();
  EXPECT_NE(s.find("dim=10"), std::string::npos);
  EXPECT_NE(s.find("SSP"), std::string::npos);
}

}  // namespace
}  // namespace hetps
