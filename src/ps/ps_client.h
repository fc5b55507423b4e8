#ifndef HETPS_PS_PS_CLIENT_H_
#define HETPS_PS_PS_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/sync_policy.h"
#include "math/sparse_vector.h"
#include "obs/breakdown.h"
#include "obs/metrics.h"
#include "ps/parameter_server.h"
#include "ps/partition.h"
#include "util/status.h"

namespace hetps {

/// What a client must know about its server before it can split pushes
/// by partition, scatter partition pieces into its replica cache, and
/// decide when Algorithm 1 forces a pull.
struct PsLayout {
  Partitioner partitioner;
  SyncPolicy sync;
};

/// One worker's wire to the parameter server: the PS operation set and
/// nothing above it, bound to the worker it was built for.
/// InProcessTransport (ps/worker_client.h) calls ParameterServer
/// directly; BusTransport (net/ps_service.h) serializes each call over a
/// MessageBus. PsClient may call Push (sender thread) and the pulls and
/// admission wait (prefetch task) concurrently with its owner thread.
/// Layout() is called once, on the owner thread, before any Push or
/// PullDelta.
class PsTransport {
 public:
  virtual ~PsTransport() = default;

  /// The server's partition layout and sync policy.
  virtual Result<PsLayout> Layout() = 0;

  /// Pushes the update that finishes `clock`, whose keys are all below
  /// the layout's dim. `layout` is the client's copy of the server's
  /// layout; a transport may use it to ship the update pre-split by
  /// partition.
  virtual Status Push(int clock, const SparseVector& update,
                      const Partitioner& layout) = 0;

  /// Version-aware pull (ParameterServer::PullDelta); all tags
  /// kNoCachedTag pulls the whole model. A decoding transport checks the
  /// partition count and encodings; ApplyPartitionPull checks each piece
  /// against the layout.
  virtual Status PullDelta(const std::vector<int64_t>& cached_tags,
                           DeltaPullResult* result) = 0;

  /// One admission check: may this worker begin `next_clock`?
  virtual Result<bool> CanAdvance(int next_clock) = 0;

  /// Blocks until this worker may begin `next_clock`. Returns Aborted
  /// once `*cancel` (may be null) is raised; WakeWaiters() makes a
  /// blocked wait re-check it.
  virtual Status WaitUntilCanAdvance(int next_clock,
                                     const std::atomic<bool>* cancel) = 0;
  virtual void WakeWaiters() = 0;

  /// Feeds this worker's last compute time to the straggler statistics.
  virtual Status ReportClock(int clock, double seconds) = 0;
  /// Re-admits this (evicted) worker as of `clock` finished clocks.
  virtual Status Readmit(int clock) = 0;

  /// Registry receiving the client's push-window gauges.
  virtual MetricsRegistry* metrics() = 0;

  /// Calls retried so far (attempts beyond the first).
  virtual int64_t retry_count() const { return 0; }
};

/// The worker-side half of Algorithm 1: push the per-clock update, keep
/// the cached cmin (cp), and pull only when the SSP policy forces it.
/// Everything above the wire lives here, once, whichever PsTransport
/// carries the calls.
///
/// Replica cache: the client keeps a *pristine* copy of the last server
/// state it received (the trainer mutates the replica it is handed) plus
/// one content tag per partition. A cached pull sends the tags; each
/// partition comes back unchanged, whole, or as a sparse patch carrying
/// the current values of the keys written since the cached copy. A patch
/// whose base tag the cache no longer holds (a checkpoint restore, a
/// retried RPC) resets that tag and re-pulls the partition whole; three
/// mismatching attempts fail with Internal. A whole-model pull is the
/// same request with every tag reset.
///
/// Threading: one instance per worker thread. Between StartPrefetch()
/// and FinishPrefetch() the prefetch task owns the cache, so the owner
/// must not pull (checked) and may push only earlier clocks (checked).
/// With `push_window >= 1` a sender thread issues pushes FIFO — keeping
/// the per-worker clock order the clock table and the service's retry
/// dedup rely on — while the owner computes; Push blocks once
/// `push_window` are outstanding. The first failed async push is latched
/// and returned by Push, Flush and every call that drains the window
/// (pulls and admission, for read-your-writes) until Readmit() clears
/// it. The destructor cancels a blocked prefetch and drains the sender.
class PsClient {
 public:
  /// `delta_pull` selects the pull the client issues on its own (the
  /// replica cache, or whole-model pulls); `push_window` bounds the
  /// asynchronous push pipeline (0 = synchronous pushes).
  PsClient(int worker_id, std::unique_ptr<PsTransport> transport,
           bool delta_pull = true, int push_window = 0);
  ~PsClient();

  PsClient(const PsClient&) = delete;
  PsClient& operator=(const PsClient&) = delete;

  /// Pushes the local update that finishes `clock`. Fetches the layout
  /// first, and rejects an update with a key beyond its dim as
  /// InvalidArgument. With a push window, enqueues and returns — blocking
  /// only while the window is full — and returns a latched async failure
  /// instead of enqueueing.
  Status Push(int clock, const SparseVector& update);

  /// Drains the push window (no-op without one) and returns the latched
  /// async-push error, if any. Refreshes breakdown().push_hidden_seconds.
  Status Flush();

  /// Algorithm 1 line 8: whether the cached cmin forces a pull before
  /// starting `clock + 1`.
  Result<bool> NeedsPull(int clock);

  /// Algorithm 1 lines 8-9: if NeedsPull(clock), waits for admission,
  /// refreshes `*replica` and returns true; otherwise returns false.
  Result<bool> MaybePull(int clock, std::vector<double>* replica);

  /// Waits for admission to `next_clock`, then Refresh().
  Status PullBlocking(int next_clock, std::vector<double>* replica);

  /// Pulls now, without an admission wait: through the replica cache
  /// when `delta_pull` is on, the whole model otherwise.
  Status Refresh(std::vector<double>* replica) {
    return OwnerPull(delta_pull_, replica, nullptr);
  }

  /// Pull through the replica cache / whole-model pull, whatever
  /// `delta_pull` says. Both drain the push window first, return a
  /// mutable copy of the server state, and set `*cmin` (may be null).
  /// The two results are bit-identical: a patch carries the server's
  /// current values, not a difference to add.
  Status PullCached(std::vector<double>* replica, int* cmin) {
    return OwnerPull(/*cached=*/true, replica, cmin);
  }
  Status Pull(std::vector<double>* replica, int* cmin) {
    return OwnerPull(/*cached=*/false, replica, cmin);
  }

  /// Drains the push window, then blocks until this worker may begin
  /// `next_clock`. The time spent is breakdown().wait_seconds.
  Status WaitUntilCanAdvance(int next_clock);

  /// Parameter pre-fetching (Appendix D): runs the admission wait and
  /// the pull for `next_clock` on a background task, overlapping this
  /// clock's computation (and missing pushes that land meanwhile). At
  /// most one prefetch may be in flight.
  void StartPrefetch(int next_clock);

  /// True if a prefetch is in flight.
  bool prefetch_active() const { return prefetch_.has_value(); }

  /// Installs the prefetched replica, blocking until it is ready. Returns
  /// false — leaving `replica` untouched — if no prefetch was started.
  Result<bool> FinishPrefetch(std::vector<double>* replica);

  /// Pass-throughs; CanAdvance drains the push window first.
  Result<bool> CanAdvance(int next_clock);
  Status ReportClock(int clock, double seconds);

  /// Rejoins after an eviction as of `clock` finished clocks. Drains
  /// the push window (pushes queued before the eviction fail, as
  /// expected) and clears the latched error first.
  Status Readmit(int clock);

  int worker_id() const { return worker_id_; }
  /// cp — the cmin returned by the last pull.
  int cached_cmin() const { return cached_cmin_; }

  /// Pushes and pulls performed (tests and traces).
  int64_t push_count() const { return push_count_; }
  int64_t pull_count() const { return pull_count_; }

  /// Cumulative content bytes this client's cached pulls received vs.
  /// what cache-less whole-model pulls would have cost.
  int64_t pulled_bytes() const { return pulled_bytes_; }
  int64_t pulled_bytes_full() const { return pulled_bytes_full_; }

  /// Content tags of the cached partitions (tests / introspection).
  const std::vector<int64_t>& cached_tags() const { return cached_tags_; }

  int64_t retry_count() const { return transport_->retry_count(); }

  /// Where this worker's PS-facing time went: pushes, pulls and drains
  /// are comm, admission waits (and FinishPrefetch blocks) are wait, and
  /// push_hidden_seconds is push time the window overlapped with compute.
  /// compute_seconds stays 0 — RunWorker adds compute.
  const WorkerTimeBreakdown& breakdown() const { return breakdown_; }

 private:
  struct PendingPush {
    int clock = 0;
    SparseVector update;
  };
  struct Prefetched {
    Status status;
    std::vector<double> replica;
    int cmin = 0;
  };

  /// Fetches the layout once (owner thread only; the sender and the
  /// prefetch task start after it is set).
  Status EnsureLayout();

  /// The owner-thread pull behind Pull / PullCached / Refresh: drains,
  /// fetches, and books comm time, cp and the pull count.
  Status OwnerPull(bool cached, std::vector<double>* replica, int* cmin);

  /// One pull through the cache, no drain and no admission wait; a
  /// whole-model pull (`cached` false) first resets every tag. Runs on
  /// the owner thread or the prefetch task — never both at once.
  Status Fetch(bool cached, std::vector<double>* replica, int* cmin);

  /// Cancels and joins an in-flight prefetch (destructor path).
  void CancelPrefetch();

  /// Sender-thread body (push_window_ >= 1).
  void SenderLoop();

  /// push_hidden_seconds = sender push time minus the owner's time
  /// blocked on the window (call with send_mu_ held or the sender gone).
  void RefreshHiddenLocked();

  const int worker_id_;
  const std::unique_ptr<PsTransport> transport_;
  const bool delta_pull_;
  const int push_window_;
  int cached_cmin_ = 0;
  int64_t push_count_ = 0;
  int64_t pull_count_ = 0;
  int64_t pulled_bytes_ = 0;
  int64_t pulled_bytes_full_ = 0;
  WorkerTimeBreakdown breakdown_;

  /// Set once by EnsureLayout; never reset, so the sender may read it.
  std::optional<PsLayout> layout_;
  /// Pristine last-received server state and its per-partition tags.
  std::vector<double> cache_;
  std::vector<int64_t> cached_tags_;

  std::optional<std::future<Prefetched>> prefetch_;
  int prefetch_clock_ = -1;
  std::atomic<bool> cancel_prefetch_{false};

  /// Push pipeline: send_mu_ guards everything below but the gauges and
  /// the thread handle.
  std::mutex send_mu_;
  std::condition_variable send_cv_;   // wakes the sender (work / stop)
  std::condition_variable space_cv_;  // wakes the owner (slot / drained)
  std::deque<PendingPush> send_queue_;
  bool stop_sender_ = false;
  int inflight_ = 0;  // queued + currently sending
  int inflight_peak_ = 0;
  Status push_error_;  // first async failure, latched until Readmit()
  double async_push_seconds_ = 0.0;     // sender wall time in pushes
  double owner_blocked_seconds_ = 0.0;  // owner wall time on the window
  Gauge* inflight_gauge_ = nullptr;
  Gauge* inflight_peak_gauge_ = nullptr;
  std::thread sender_;
};

}  // namespace hetps

#endif  // HETPS_PS_PS_CLIENT_H_
