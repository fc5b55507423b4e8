// Multithreaded regression and stress tests for the ParameterServer
// lock-ordering discipline (parameter_server.h). Run these under
// ThreadSanitizer (scripts/run_sanitizers.sh tsan) — several of them
// exist precisely because TSan or a deadlock caught a real bug.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "core/dyn_sgd.h"
#include "ps/parameter_server.h"
#include "util/rng.h"

namespace hetps {
namespace {

PsOptions StressOptions() {
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.sync = SyncPolicy::Asp();  // no admission blocking in stress loops
  return opts;
}

// A whole-model PullDelta, scattered into a dense vector.
std::vector<double> PullWhole(ParameterServer* ps, int worker) {
  const DeltaPullResult r = ps->PullDelta(worker, {});
  std::vector<double> w(static_cast<size_t>(ps->dim()), 0.0);
  std::vector<int64_t> tags(static_cast<size_t>(ps->num_partitions()),
                            kNoCachedTag);
  bool mismatch = false;
  for (const PartitionPull& piece : r.partitions) {
    EXPECT_TRUE(
        ApplyPartitionPull(ps->partitioner(), piece, &w, &tags, &mismatch)
            .ok());
  }
  EXPECT_FALSE(mismatch);
  return w;
}

// Regression: SaveCheckpoint took clock_mu_ then shard_mu_[p] while the
// partition read took shard_mu_[p] then clock_mu_ (to read cmax for the
// OnPull stamp) — a classic ABBA deadlock under concurrent pulls and
// checkpoints. Fixed by snapshotting cmax *before* the shard lock.
// Before the fix this test wedged within a few hundred iterations.
TEST(PsConcurrencyTest, PullsRaceCheckpointsWithoutDeadlock) {
  DynSgdRule rule;
  ParameterServer ps(64, 4, rule, StressOptions());
  // Seed some state so pulls and checkpoints do real work.
  for (int m = 0; m < 4; ++m) {
    ps.Push(m, 0, SparseVector({static_cast<int64_t>(m), 40}, {1.0, 0.5}));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> checkpoints{0};

  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream sink;
      ASSERT_TRUE(ps.SaveCheckpoint(sink).ok());
      checkpoints.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> pullers;
  for (int m = 0; m < 3; ++m) {
    pullers.emplace_back([&, m] {
      for (int i = 0; i < 400; ++i) {
        // The partition read is the shard->clock path that deadlocked.
        for (int p = 0; p < ps.num_partitions(); ++p) {
          ps.BuildPartitionPull(p, m, /*version=*/-1, kNoCachedTag);
        }
        ps.PullDelta(m, {});
      }
    });
  }
  for (auto& t : pullers) t.join();
  stop.store(true, std::memory_order_relaxed);
  checkpointer.join();
  EXPECT_GT(checkpoints.load(), 0);
}

// Full-mix stress: concurrent pushes, cached and whole pulls, single
// partition reads, snapshots and checkpoints. Checks invariants loosely
// (exact values depend on interleaving) but TSan verifies the locking.
TEST(PsConcurrencyTest, ConcurrentPushPullSnapshotCheckpoint) {
  SspRule rule;
  const int kWorkers = 4;
  const int kClocks = 60;
  ParameterServer ps(128, kWorkers, rule, StressOptions());

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int m = 0; m < kWorkers; ++m) {
    threads.emplace_back([&, m] {
      Rng rng(100 + m);
      std::vector<int64_t> tags;
      for (int c = 0; c < kClocks; ++c) {
        SparseVector u;
        for (int64_t j = 0; j < ps.dim(); ++j) {
          if (rng.NextBernoulli(0.1)) u.PushBack(j, 1.0);
        }
        ps.Push(m, c, u);
        if (c % 5 == 0) {
          tags.clear();
          for (const PartitionPull& p : ps.PullDelta(m, tags).partitions) {
            tags.push_back(p.tag);
          }
        }
        if (c % 3 == 0) ps.PullDelta(m, tags);  // unchanged / patch pieces
        if (c % 7 == 0) {
          ps.BuildPartitionPull(c % ps.num_partitions(), m, -1,
                                kNoCachedTag);
        }
      }
    });
  }
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = ps.Snapshot();
      ASSERT_EQ(snap.size(), 128u);
      std::ostringstream sink;
      ASSERT_TRUE(ps.SaveCheckpoint(sink).ok());
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  observer.join();

  // Every worker finished every clock.
  EXPECT_EQ(ps.cmin(), kClocks);
  EXPECT_EQ(ps.cmax(), kClocks);
}

// LoadCheckpoint commits shadow state under the full lock hierarchy
// while readers keep pulling: restores must never tear a pull (a pull
// sees either the old or the new state per partition, and never
// crashes or races).
TEST(PsConcurrencyTest, RestoreRacesPullsSafely) {
  DynSgdRule rule;
  ParameterServer ps(32, 2, rule, StressOptions());
  ps.Push(0, 0, SparseVector({1}, {1.0}));
  ps.Push(1, 0, SparseVector({20}, {2.0}));
  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());
  const std::string ckpt = buffer.str();
  // Every restore returns to exactly this state, so concurrent pulls
  // must always observe it (the rule's materialization is
  // deterministic).
  const std::vector<double> expected = ps.Snapshot();

  std::atomic<bool> stop{false};
  std::thread restorer([&] {
    for (int i = 0; i < 50; ++i) {
      std::stringstream is(ckpt);
      ASSERT_TRUE(ps.LoadCheckpoint(is).ok());
    }
    stop.store(true, std::memory_order_relaxed);
  });
  std::vector<std::thread> pullers;
  for (int m = 0; m < 2; ++m) {
    pullers.emplace_back([&, m] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto w = PullWhole(&ps, m);
        ASSERT_EQ(w.size(), 32u);
        EXPECT_DOUBLE_EQ(w[1], expected[1]);
        EXPECT_DOUBLE_EQ(w[20], expected[20]);
      }
    });
  }
  restorer.join();
  for (auto& t : pullers) t.join();
}

// SSP waiters blocked in WaitUntilCanAdvance must wake when a restore
// rewinds/advances the clock table (the commit notifies clock_cv_).
TEST(PsConcurrencyTest, RestoreWakesSspWaiters) {
  SspRule rule;
  PsOptions opts = StressOptions();
  opts.sync = SyncPolicy::Ssp(1);
  ParameterServer slow(8, 2, rule, opts);

  // Build a checkpoint where both workers finished clock 1.
  ParameterServer fast(8, 2, rule, opts);
  for (int c = 0; c < 2; ++c) {
    fast.Push(0, c, SparseVector({0}, {1.0}));
    fast.Push(1, c, SparseVector({1}, {1.0}));
  }
  std::stringstream buffer;
  ASSERT_TRUE(fast.SaveCheckpoint(buffer).ok());

  // Worker 0 in `slow` is ahead and blocks on clock 3 admission.
  slow.Push(0, 0, SparseVector({0}, {1.0}));
  slow.Push(0, 1, SparseVector({0}, {1.0}));
  std::thread waiter([&] { slow.WaitUntilCanAdvance(0, 3); });
  // The restore brings cmin to 2, admitting clock 3 under SSP(1).
  ASSERT_TRUE(slow.LoadCheckpoint(buffer).ok());
  waiter.join();
  EXPECT_EQ(slow.cmin(), 2);
}

// Eviction races pushers: while every worker hammers pushes, an
// eviction/readmission thread repeatedly removes and restores one
// worker. Sampled invariant: cmin <= cmax at all times, and the run
// terminates (no waiter left stranded, no deadlock between the clock
// lock and the shard locks). TSan verifies the locking.
TEST(PsConcurrencyTest, EvictReadmitRacesPushers) {
  SspRule rule;
  const int kWorkers = 4;
  const int kClocks = 80;
  ParameterServer ps(64, kWorkers, rule, StressOptions());

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int m = 0; m < kWorkers; ++m) {
    threads.emplace_back([&, m] {
      for (int c = 0; c < kClocks; ++c) {
        SparseVector u;
        u.PushBack(m, 1.0);
        u.PushBack(32 + m, 1.0);
        // Worker 3's pushes may be dropped while it is evicted — that is
        // the point: drops must be silent, counted, and non-corrupting.
        ps.Push(m, c, u);
        if (c % 9 == 0) ps.PullDelta(m, {});
      }
    });
  }
  std::thread churner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (ps.EvictWorker(3)) {
        // Rejoin at the current frontier, as a recovered worker would.
        ps.ReadmitWorker(3, ps.cmin());
      }
      ASSERT_LE(ps.cmin(), ps.cmax());
      ASSERT_GE(ps.num_live_workers(), kWorkers - 1);
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  churner.join();

  // Readmit one last time so the final-state checks are deterministic.
  ps.ReadmitWorker(3, ps.cmin());
  EXPECT_LE(ps.cmin(), ps.cmax());
  // Workers 0-2 were never evicted: all their clocks landed.
  EXPECT_EQ(ps.cmax(), kClocks);
}

// Concurrent multi-partition pushes and whole-model pulls from several
// threads. TSan verifies the locking; the final clock checks verify no
// push was dropped.
TEST(PsConcurrencyTest, ConcurrentPushesAndPullsAllLand) {
  DynSgdRule rule;
  const int kWorkers = 4;
  const int kClocks = 40;
  PsOptions opts = StressOptions();
  opts.partitions_per_server = 4;
  ParameterServer ps(128, kWorkers, rule, opts);

  std::vector<std::thread> threads;
  for (int m = 0; m < kWorkers; ++m) {
    threads.emplace_back([&, m] {
      Rng rng(200 + m);
      for (int c = 0; c < kClocks; ++c) {
        SparseVector u;
        for (int64_t j = 0; j < ps.dim(); ++j) {
          if (rng.NextBernoulli(0.1)) u.PushBack(j, 0.5);
        }
        ps.Push(m, c, u);
        if (c % 3 == 0) {
          ASSERT_EQ(ps.PullDelta(m, {}).partitions.size(),
                    static_cast<size_t>(ps.num_partitions()));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ps.cmin(), kClocks);
  EXPECT_EQ(ps.cmax(), kClocks);
}

// Pulls stamp per-worker read state but never change content: with no
// push in flight, concurrent whole-model pulls from every worker all
// return the model exactly.
TEST(PsConcurrencyTest, ConcurrentPullsAtRestAllSeeTheModel) {
  DynSgdRule rule;
  const int kWorkers = 4;
  PsOptions opts = StressOptions();
  opts.partitions_per_server = 4;
  ParameterServer ps(128, kWorkers, rule, opts);
  Rng rng(5);
  for (int m = 0; m < kWorkers; ++m) {
    SparseVector u;
    for (int64_t j = 0; j < ps.dim(); ++j) {
      if (rng.NextBernoulli(0.3)) u.PushBack(j, rng.NextDouble());
    }
    ps.Push(m, 0, u);
  }
  const std::vector<double> expected = ps.Snapshot();
  std::vector<std::thread> threads;
  for (int m = 0; m < kWorkers; ++m) {
    threads.emplace_back([&, m] {
      for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(PullWhole(&ps, m), expected) << "worker " << m;
      }
    });
  }
  for (auto& t : threads) t.join();
}

// Workers deliver each push as one PushPieces call per partition (as
// the columnar wire path and the simulator do), concurrently. Every
// update value is exact in binary, so the sums cannot depend on the
// interleaving: the final model is exactly the total of all pushes.
TEST(PsConcurrencyTest, ConcurrentPiecewisePushesAllLand) {
  SspRule rule;
  const int kWorkers = 4;
  const int kClocks = 30;
  PsOptions opts = StressOptions();
  opts.partitions_per_server = 4;
  ParameterServer ps(64, kWorkers, rule, opts);
  std::vector<std::vector<double>> totals(
      kWorkers, std::vector<double>(static_cast<size_t>(ps.dim()), 0.0));
  std::vector<std::thread> threads;
  for (int m = 0; m < kWorkers; ++m) {
    threads.emplace_back([&, m] {
      Rng rng(300 + m);
      std::vector<double>& total = totals[static_cast<size_t>(m)];
      for (int c = 0; c < kClocks; ++c) {
        SparseVector u;
        for (int64_t j = 0; j < ps.dim(); ++j) {
          if (rng.NextBernoulli(0.25)) {
            u.PushBack(j, 0.25 * (m + 1));
            total[static_cast<size_t>(j)] += 0.25 * (m + 1);
          }
        }
        const std::vector<SparseVector> split =
            ps.partitioner().SplitByPartition(u);
        for (size_t p = 0; p < split.size(); ++p) {
          ps.PushPieces(m, c, {{static_cast<int>(p), split[p]}},
                        /*finishes_push=*/p + 1 == split.size());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ps.cmin(), kClocks);
  EXPECT_EQ(ps.cmax(), kClocks);
  const std::vector<double> w = ps.Snapshot();
  for (size_t j = 0; j < w.size(); ++j) {
    double sum = 0.0;
    for (const auto& total : totals) sum += total[j];
    EXPECT_EQ(w[j], sum) << "key " << j;
  }
}

}  // namespace
}  // namespace hetps
