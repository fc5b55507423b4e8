#include "ps/worker_client.h"

#include <gtest/gtest.h>

#include <vector>

namespace hetps {
namespace {

PsOptions Options(SyncPolicy sync) {
  PsOptions opts;
  opts.num_servers = 2;
  opts.sync = sync;
  return opts;
}

TEST(WorkerClientDeathTest, DoublePrefetchDies) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  client.StartPrefetch(0);
  EXPECT_DEATH(client.StartPrefetch(0), "already in flight");
}

TEST(WorkerClientDeathTest, PushRacingPrefetchedClockDies) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  client.StartPrefetch(1);
  // Pushing the prefetched clock itself while the pull is in flight is a
  // loop-sequencing bug, not a legal overlap.
  EXPECT_DEATH(client.Push(1, SparseVector({0}, {1.0})),
               "racing in-flight prefetch");
}

TEST(WorkerClientDeathTest, PullBlockingDuringPrefetchDies) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  client.StartPrefetch(1);
  std::vector<double> replica;
  EXPECT_DEATH(client.PullBlocking(1, &replica),
               "racing in-flight prefetch");
}

TEST(WorkerClientDeathTest, ValidatesConstruction) {
  SspRule rule;
  ParameterServer ps(4, 1, rule, Options(SyncPolicy::Asp()));
  EXPECT_DEATH(WorkerClient(1, &ps), "out of range");
  EXPECT_DEATH(WorkerClient(0, nullptr), "null");
}

}  // namespace
}  // namespace hetps
