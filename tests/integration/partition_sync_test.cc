// Integration tests of §6's version-based partition synchronization: the
// master's stable version, consistent multi-partition pulls, and the
// simulator path with partition_sync enabled.

#include <gtest/gtest.h>

#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "sim/event_sim.h"
#include "util/rng.h"

namespace hetps {
namespace {

DynSgdRule DeferredDyn() {
  DynSgdRule::Options opts;
  opts.mode = DynSgdRule::ApplyMode::kDeferred;
  return DynSgdRule(opts);
}

// A whole-model pull, as a cache-less client issues it.
std::vector<double> PullWhole(ParameterServer* ps, int worker) {
  WorkerClient client(worker, ps, /*delta_pull=*/false);
  std::vector<double> w;
  EXPECT_TRUE(client.Pull(&w, nullptr).ok());
  return w;
}

// Pushes clock `clock` of both workers to every partition of `ps`.
void PushCompleteClock(ParameterServer* ps, int clock, double value) {
  for (int worker = 0; worker < 2; ++worker) {
    SparseVector update;
    for (int64_t key = 0; key < ps->dim(); ++key) {
      update.PushBack(key, value);
    }
    ps->Push(worker, clock, update);
  }
}

TEST(PartitionSyncTest, StableVersionCountsCompletedVersionsOnly) {
  DynSgdRule rule = DeferredDyn();
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.partition_sync = true;
  ParameterServer ps(16, 2, rule, opts);
  EXPECT_EQ(ps.StableVersion(), 0);
  PushCompleteClock(&ps, 0, 1.0);
  EXPECT_EQ(ps.StableVersion(), 1);
  // A lone clock-1 piece from one worker does not advance stability.
  ps.PushPieces(0, 1, {{0, SparseVector({0}, {9.0})}},
                /*finishes_push=*/false);
  EXPECT_EQ(ps.StableVersion(), 1);
}

TEST(PartitionSyncTest, SynchronizedPullIgnoresStragglingPieces) {
  DynSgdRule rule = DeferredDyn();
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 1;
  opts.partition_sync = true;
  ParameterServer ps(4, 2, rule, opts);
  PushCompleteClock(&ps, 0, 0.5);  // both workers -> each key sums to 1.0
  // A clock-1 piece reaches only the partition holding key 0.
  const int hot = ps.partitioner().PartitionOf(0);
  const auto v1 =
      ps.partitioner().SplitByPartition(SparseVector({0}, {100.0}));
  ps.PushPieces(0, 1, {{hot, v1[static_cast<size_t>(hot)]}},
                /*finishes_push=*/false);

  // With sync the pull is the consistent clock-0 state: version 0 holds
  // the *mean* of the two workers' 0.5-updates.
  const auto synced = PullWhole(&ps, 1);
  for (double v : synced) {
    EXPECT_DOUBLE_EQ(v, 0.5);
  }
}

TEST(PartitionSyncTest, UnsynchronizedPullMixesVersions) {
  DynSgdRule rule = DeferredDyn();
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 1;
  opts.partition_sync = false;  // best-effort, like existing systems
  ParameterServer ps(4, 2, rule, opts);
  PushCompleteClock(&ps, 0, 0.5);
  const int hot = ps.partitioner().PartitionOf(0);
  const auto v1 =
      ps.partitioner().SplitByPartition(SparseVector({0}, {100.0}));
  ps.PushPieces(0, 1, {{hot, v1[static_cast<size_t>(hot)]}},
                /*finishes_push=*/false);
  const auto mixed = PullWhole(&ps, 1);
  // Saw the in-flight clock-1 piece at full transient weight on top of
  // version 0's mean.
  EXPECT_DOUBLE_EQ(mixed[0], 100.5);
  EXPECT_DOUBLE_EQ(mixed[1], 0.5);
}

TEST(PartitionSyncTest, SimulatorRunsWithPartitionSync) {
  SyntheticConfig cfg;
  cfg.num_examples = 300;
  cfg.num_features = 200;
  cfg.avg_nnz = 8;
  Dataset d = GenerateSynthetic(cfg);
  Rng rng(8);
  d.Shuffle(&rng);
  LogisticLoss loss;
  DynSgdRule rule = DeferredDyn();
  FixedRate sched(0.5);
  SimOptions opts;
  opts.max_clocks = 15;
  opts.stop_on_convergence = false;
  opts.partition_sync = true;
  opts.partitions_per_server = 2;
  opts.eval_sample = 300;
  const SimResult r = RunSimulation(
      d, ClusterConfig::WithStragglers(4, 2, 2.0), rule, sched, loss,
      opts);
  EXPECT_LT(r.objective_per_clock.back(),
            0.8 * r.objective_per_clock.front());
}

TEST(PartitionSyncTest, SyncAndNoSyncBothConvergeComparably) {
  SyntheticConfig cfg;
  cfg.num_examples = 300;
  cfg.num_features = 200;
  cfg.avg_nnz = 8;
  Dataset d = GenerateSynthetic(cfg);
  Rng rng(8);
  d.Shuffle(&rng);
  LogisticLoss loss;
  DynSgdRule rule = DeferredDyn();
  FixedRate sched(0.5);
  SimOptions opts;
  opts.max_clocks = 15;
  opts.stop_on_convergence = false;
  opts.eval_sample = 300;
  opts.partitions_per_server = 2;
  opts.partition_sync = false;
  const SimResult off = RunSimulation(
      d, ClusterConfig::WithStragglers(4, 2, 2.0), rule, sched, loss,
      opts);
  opts.partition_sync = true;
  const SimResult on = RunSimulation(
      d, ClusterConfig::WithStragglers(4, 2, 2.0), rule, sched, loss,
      opts);
  EXPECT_LT(on.objective_per_clock.back(), 0.55);
  EXPECT_LT(off.objective_per_clock.back(), 0.55);
}

}  // namespace
}  // namespace hetps
