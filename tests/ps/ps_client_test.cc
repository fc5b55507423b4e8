// PsClient behaviours that must not depend on the wire: every test in
// the PsClientTest suite runs once over the in-process transport and
// once over the message-bus transport.

#include "ps/ps_client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/message_bus.h"
#include "net/ps_service.h"
#include "obs/metrics.h"
#include "ps/worker_client.h"

namespace hetps {
namespace {

enum class Transport { kInProcess, kBus };

class PsClientTest : public ::testing::TestWithParam<Transport> {
 protected:
  /// Builds the server; the bus leg serves it through a PsService.
  void Serve(int64_t dim, int workers, SyncPolicy sync) {
    PsOptions opts;
    opts.num_servers = 2;
    opts.sync = sync;
    ps_ = std::make_unique<ParameterServer>(dim, workers, rule_, opts);
    if (GetParam() == Transport::kBus) {
      bus_ = std::make_unique<MessageBus>();
      service_ = std::make_unique<PsService>(ps_.get(), bus_.get(), "ps");
      ASSERT_TRUE(service_->status().ok());
    }
  }

  std::unique_ptr<PsClient> Client(int worker, int push_window = 0) {
    std::unique_ptr<PsTransport> transport;
    if (GetParam() == Transport::kBus) {
      transport = std::make_unique<BusTransport>(worker, bus_.get(), "ps");
    } else {
      transport = std::make_unique<InProcessTransport>(ps_.get(), worker);
    }
    return std::make_unique<PsClient>(worker, std::move(transport),
                                      /*delta_pull=*/true, push_window);
  }

  ParameterServer& ps() { return *ps_; }

 private:
  SspRule rule_;
  std::unique_ptr<ParameterServer> ps_;
  std::unique_ptr<MessageBus> bus_;
  std::unique_ptr<PsService> service_;
};

INSTANTIATE_TEST_SUITE_P(
    Transports, PsClientTest,
    ::testing::Values(Transport::kInProcess, Transport::kBus),
    [](const ::testing::TestParamInfo<Transport>& info) {
      return std::string(info.param == Transport::kBus ? "Bus"
                                                       : "InProcess");
    });

TEST_P(PsClientTest, PushCountsAndReachesServer) {
  Serve(4, 1, SyncPolicy::Asp());
  auto client = Client(0);
  ASSERT_TRUE(client->Push(0, SparseVector({2}, {5.0})).ok());
  EXPECT_EQ(client->push_count(), 1);
  EXPECT_DOUBLE_EQ(ps().Snapshot()[2], 5.0);
}

TEST_P(PsClientTest, MaybePullRespectsSspThrottle) {
  Serve(4, 1, SyncPolicy::Ssp(2));
  auto client = Client(0);
  std::vector<double> replica(4, 0.0);
  // Single worker: cmin advances with every push.
  ASSERT_TRUE(client->Push(0, SparseVector()).ok());
  EXPECT_FALSE(client->MaybePull(0, &replica).value());  // cp=0 !< 0-2
  ASSERT_TRUE(client->Push(1, SparseVector()).ok());
  ASSERT_TRUE(client->Push(2, SparseVector()).ok());
  EXPECT_TRUE(client->MaybePull(3, &replica).value());  // cp=0 < 3-2
  EXPECT_EQ(client->pull_count(), 1);
  EXPECT_EQ(client->cached_cmin(), 3);
}

TEST_P(PsClientTest, AspPullsEveryClockWithoutBlocking) {
  Serve(4, 2, SyncPolicy::Asp());
  auto client = Client(0);
  std::vector<double> replica(4, 0.0);
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(client->Push(c, SparseVector()).ok());
    EXPECT_TRUE(client->MaybePull(c, &replica).value());
  }
  EXPECT_EQ(client->pull_count(), 3);
}

TEST_P(PsClientTest, PullRefreshesReplica) {
  Serve(4, 1, SyncPolicy::Asp());
  auto client = Client(0);
  std::vector<double> replica(4, 0.0);
  ASSERT_TRUE(client->Push(0, SparseVector({1}, {3.0})).ok());
  ASSERT_TRUE(client->PullBlocking(1, &replica).ok());
  EXPECT_DOUBLE_EQ(replica[1], 3.0);
}

TEST_P(PsClientTest, BspBarrierBlocksUntilPeersPush) {
  Serve(4, 2, SyncPolicy::Bsp());
  auto fast = Client(0);
  std::vector<double> replica(4, 0.0);
  ASSERT_TRUE(fast->Push(0, SparseVector({0}, {1.0})).ok());
  Status pulled;
  std::thread t([&] { pulled = fast->PullBlocking(1, &replica); });
  // The slow peer's push releases the barrier.
  auto slow = Client(1);
  ASSERT_TRUE(slow->Push(0, SparseVector({1}, {2.0})).ok());
  t.join();
  ASSERT_TRUE(pulled.ok()) << pulled.ToString();
  EXPECT_DOUBLE_EQ(replica[0], 1.0);
  EXPECT_DOUBLE_EQ(replica[1], 2.0);
}

TEST_P(PsClientTest, PrefetchDeliversPulledState) {
  Serve(4, 1, SyncPolicy::Asp());
  auto client = Client(0);
  ASSERT_TRUE(client->Push(0, SparseVector({1}, {3.0})).ok());
  EXPECT_FALSE(client->prefetch_active());
  client->StartPrefetch(1);
  EXPECT_TRUE(client->prefetch_active());
  std::vector<double> replica(4, 0.0);
  EXPECT_TRUE(client->FinishPrefetch(&replica).value());
  EXPECT_FALSE(client->prefetch_active());
  EXPECT_DOUBLE_EQ(replica[1], 3.0);
  EXPECT_EQ(client->pull_count(), 1);
}

TEST_P(PsClientTest, FinishWithoutStartIsNoOp) {
  Serve(4, 1, SyncPolicy::Asp());
  auto client = Client(0);
  std::vector<double> replica(4, 7.0);
  EXPECT_FALSE(client->FinishPrefetch(&replica).value());
  EXPECT_DOUBLE_EQ(replica[0], 7.0);  // untouched
}

TEST_P(PsClientTest, PrefetchWaitsForSspAdmission) {
  Serve(4, 2, SyncPolicy::Bsp());
  auto fast = Client(0);
  ASSERT_TRUE(fast->Push(0, SparseVector({0}, {1.0})).ok());
  fast->StartPrefetch(1);  // blocked until the peer pushes clock 0
  auto slow = Client(1);
  ASSERT_TRUE(slow->Push(0, SparseVector({1}, {2.0})).ok());
  std::vector<double> replica(4, 0.0);
  ASSERT_TRUE(fast->FinishPrefetch(&replica).value());
  EXPECT_DOUBLE_EQ(replica[0], 1.0);
  EXPECT_DOUBLE_EQ(replica[1], 2.0);
}

TEST_P(PsClientTest, DestructorCancelsBlockedPrefetch) {
  // The prefetch task is parked in the admission wait (the peer never
  // pushes). Destroying the client must cancel the wait and join the
  // task instead of hanging — or outliving the server it waits on.
  Serve(4, 2, SyncPolicy::Ssp(0));
  {
    auto fast = Client(0);
    ASSERT_TRUE(fast->Push(0, SparseVector({0}, {1.0})).ok());
    fast->StartPrefetch(1);  // blocks: worker 1 never finishes clock 0
    // Give the task a moment to actually enter the wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }  // ~PsClient must return
  SUCCEED();
}

TEST_P(PsClientTest, PushOfEarlierClockOverlapsPrefetch) {
  // The intended pipeline: StartPrefetch(c + 1) ... Push(c). The push
  // here is what admits the prefetch.
  Serve(4, 1, SyncPolicy::Ssp(0));
  auto client = Client(0);
  client->StartPrefetch(1);  // waits for clock 0 to be pushed
  ASSERT_TRUE(client->Push(0, SparseVector({2}, {4.0})).ok());
  std::vector<double> replica(4, 0.0);
  ASSERT_TRUE(client->FinishPrefetch(&replica).value());
  EXPECT_DOUBLE_EQ(replica[2], 4.0);
}

// The window bounds how far the owner can run ahead: inflight never
// exceeds push_window, and the peak gauge proves the pipeline actually
// overlapped.
TEST_P(PsClientTest, WindowBoundsInflightAndPeakGaugeRecords) {
  Serve(16, 1, SyncPolicy::Asp());
  GlobalMetrics().gauge("push.inflight_peak")->Set(0.0);
  auto client = Client(0, /*push_window=*/2);
  std::vector<double> replica;
  int cp = 0;
  ASSERT_TRUE(client->PullCached(&replica, &cp).ok());
  for (int c = 0; c < 32; ++c) {
    ASSERT_TRUE(client->Push(c, SparseVector({c % 16}, {0.01})).ok());
  }
  ASSERT_TRUE(client->Flush().ok());
  EXPECT_EQ(ps().cmin(), 32);
  const double peak = GlobalMetrics().gauge("push.inflight_peak")->value();
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, 2.0);
  EXPECT_DOUBLE_EQ(GlobalMetrics().gauge("push.inflight")->value(), 0.0);
  EXPECT_GE(client->breakdown().push_hidden_seconds, 0.0);
}

// Read-your-writes: a pull must observe every update this worker already
// pushed, even ones still sitting in the sender queue.
TEST_P(PsClientTest, PullDrainsTheQueueFirst) {
  Serve(16, 1, SyncPolicy::Asp());
  auto client = Client(0, /*push_window=*/4);
  std::vector<double> replica;
  int cp = 0;
  ASSERT_TRUE(client->PullCached(&replica, &cp).ok());
  for (int c = 0; c < 8; ++c) {
    ASSERT_TRUE(client->Push(c, SparseVector({5}, {1.0})).ok());
  }
  // No explicit Flush: the pull itself must drain.
  ASSERT_TRUE(client->PullCached(&replica, &cp).ok());
  EXPECT_DOUBLE_EQ(replica[5], 8.0);
}

// A key beyond the model's dim is refused with InvalidArgument whether
// or not the client has fetched the layout yet, synchronously and
// through the push window — never a crash in the partition split.
TEST_P(PsClientTest, OutOfRangePushIsRejectedBeforeAndAfterPull) {
  Serve(8, 1, SyncPolicy::Asp());
  for (int window : {0, 1}) {
    SCOPED_TRACE(window);
    auto client = Client(0, window);
    const SparseVector bad({9}, {1.0});
    EXPECT_TRUE(client->Push(0, bad).IsInvalidArgument());
    std::vector<double> replica;
    int cp = 0;
    ASSERT_TRUE(client->PullCached(&replica, &cp).ok());
    EXPECT_TRUE(client->Push(0, bad).IsInvalidArgument());
    EXPECT_EQ(client->push_count(), 0);
  }
  EXPECT_EQ(ps().cmin(), 0);
}

// An in-process transport whose PullDelta results a test can tamper
// with: drives the one replica-cache apply through the responses a
// faulty or hostile wire could deliver.
class TamperedTransport final : public InProcessTransport {
 public:
  TamperedTransport(ParameterServer* ps,
                    std::function<void(DeltaPullResult*)> tamper)
      : InProcessTransport(ps, 0), tamper_(std::move(tamper)) {}

  Status PullDelta(const std::vector<int64_t>& cached_tags,
                   DeltaPullResult* result) override {
    HETPS_RETURN_NOT_OK(InProcessTransport::PullDelta(cached_tags, result));
    tamper_(result);
    return Status::OK();
  }

 private:
  std::function<void(DeltaPullResult*)> tamper_;
};

PsOptions CacheOptions() {
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.scheme = PartitionScheme::kRange;
  opts.sync = SyncPolicy::Asp();
  return opts;
}

// A patch against a base tag the cache does not hold (here: a forged
// one whose content would poison the cache) is dropped; the client
// resets that tag and re-pulls, ending bitwise at the server's state.
TEST(PsClientCacheTest, BaseTagMismatchRepullsWhole) {
  SspRule rule;
  ParameterServer ps(32, 1, rule, CacheOptions());
  int forged = 0;
  const auto forge_first_patch = [&forged](DeltaPullResult* r) {
    for (PartitionPull& pp : r->partitions) {
      if (forged > 0 ||
          pp.encoding != PartitionPull::Encoding::kSparsePatch) {
        continue;
      }
      pp.base_tag += 1;
      pp.sparse = SparseVector(pp.sparse.indices(),
                               std::vector<double>(pp.sparse.nnz(), 1e6));
      ++forged;
    }
  };
  PsClient client(
      0, std::make_unique<TamperedTransport>(&ps, forge_first_patch));
  // Dense blocks first, so the one-key update below ships as a patch.
  ASSERT_TRUE(
      client.Push(0, SparseVector::FromDense(std::vector<double>(32, 0.5),
                                             0.0))
          .ok());
  std::vector<double> replica;
  int cp = 0;
  ASSERT_TRUE(client.PullCached(&replica, &cp).ok());
  ASSERT_TRUE(client.Push(1, SparseVector({9}, {0.5})).ok());
  ASSERT_TRUE(client.PullCached(&replica, &cp).ok());
  EXPECT_EQ(forged, 1);
  EXPECT_EQ(replica, ps.Snapshot());
}

// A server that keeps answering with mismatching patches is an error
// after three attempts, not an endless loop.
TEST(PsClientCacheTest, PersistentBaseTagMismatchFails) {
  SspRule rule;
  ParameterServer ps(32, 1, rule, CacheOptions());
  PsClient client(0, std::make_unique<TamperedTransport>(
                         &ps, [](DeltaPullResult* r) {
                           for (PartitionPull& pp : r->partitions) {
                             pp.encoding =
                                 PartitionPull::Encoding::kSparsePatch;
                             pp.base_tag = 12345;
                             pp.dense.clear();
                           }
                         }));
  std::vector<double> replica;
  int cp = 0;
  const Status st = client.PullCached(&replica, &cp);
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
}

// Pieces that do not fit the layout are refused before they touch the
// cache: wrong dense length, sparse index past the partition, and a
// partition id out of range.
TEST(PsClientCacheTest, MalformedPiecesAreRejected) {
  const std::vector<std::function<void(PartitionPull*)>> breakers = {
      [](PartitionPull* pp) {
        pp->encoding = PartitionPull::Encoding::kDense;
        pp->dense.assign(3, 1.0);
      },
      [](PartitionPull* pp) {
        pp->encoding = PartitionPull::Encoding::kSparse;
        pp->sparse = SparseVector({1000}, {1.0});
      },
      [](PartitionPull* pp) { pp->partition = 99; },
  };
  for (size_t i = 0; i < breakers.size(); ++i) {
    SCOPED_TRACE(i);
    SspRule rule;
    ParameterServer ps(32, 1, rule, CacheOptions());
    PsClient client(0, std::make_unique<TamperedTransport>(
                           &ps, [&](DeltaPullResult* r) {
                             breakers[i](&r->partitions.back());
                           }));
    std::vector<double> replica;
    int cp = 0;
    EXPECT_TRUE(client.PullCached(&replica, &cp).IsInvalidArgument());
  }
}

}  // namespace
}  // namespace hetps
