#include "ps/ps_client.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"

namespace hetps {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Pull attempts before persistent base-tag mismatches become an error.
constexpr int kMaxTagAttempts = 3;

}  // namespace

PsClient::PsClient(int worker_id, std::unique_ptr<PsTransport> transport,
                   bool delta_pull, int push_window)
    : worker_id_(worker_id),
      transport_(std::move(transport)),
      delta_pull_(delta_pull),
      push_window_(push_window) {
  HETPS_CHECK(transport_ != nullptr) << "null PsTransport";
  HETPS_CHECK(push_window >= 0) << "negative push window";
  if (push_window_ >= 1) {
    inflight_gauge_ = transport_->metrics()->gauge("push.inflight");
    inflight_peak_gauge_ = transport_->metrics()->gauge("push.inflight_peak");
    sender_ = std::thread([this] { SenderLoop(); });
  }
}

PsClient::~PsClient() {
  CancelPrefetch();
  if (sender_.joinable()) {
    // The sender drains the queue before exiting, so every accepted push
    // is attempted even when the trainer tears down mid-window.
    {
      std::lock_guard<std::mutex> lock(send_mu_);
      stop_sender_ = true;
    }
    send_cv_.notify_all();
    sender_.join();
    RefreshHiddenLocked();  // sender joined: no lock needed
  }
}

void PsClient::SenderLoop() {
  for (;;) {
    PendingPush item;
    {
      std::unique_lock<std::mutex> lock(send_mu_);
      send_cv_.wait(lock, [this] {
        return stop_sender_ || !send_queue_.empty();
      });
      if (send_queue_.empty()) return;  // stop requested and drained
      item = std::move(send_queue_.front());
      send_queue_.pop_front();
    }
    const Clock::time_point start = Clock::now();
    const Status st =
        transport_->Push(item.clock, item.update, layout_->partitioner);
    const double dur = SecondsSince(start);
    {
      std::lock_guard<std::mutex> lock(send_mu_);
      async_push_seconds_ += dur;
      if (!st.ok() && push_error_.ok()) {
        // First failure wins; the next owner call that drains returns it.
        push_error_ = Status(st.code(), "async push of clock " +
                                            std::to_string(item.clock) +
                                            " failed: " + st.message());
      }
      --inflight_;
      inflight_gauge_->Add(-1.0);
    }
    space_cv_.notify_all();
  }
}

void PsClient::RefreshHiddenLocked() {
  breakdown_.push_hidden_seconds =
      std::max(0.0, async_push_seconds_ - owner_blocked_seconds_);
}

Status PsClient::Flush() {
  if (push_window_ == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(send_mu_);
  if (inflight_ > 0) {
    const Clock::time_point start = Clock::now();
    space_cv_.wait(lock, [this] { return inflight_ == 0; });
    const double blocked = SecondsSince(start);
    owner_blocked_seconds_ += blocked;
    breakdown_.comm_seconds += blocked;
  }
  RefreshHiddenLocked();
  return push_error_;
}

Status PsClient::Push(int clock, const SparseVector& update) {
  // Overlapping a prefetch for a *later* clock is the intended pipeline
  // (the push may even be what admits the prefetch). Pushing the
  // prefetched clock itself while its pull is in flight means the
  // caller's loop lost its ordering.
  HETPS_CHECK(!prefetch_.has_value() || clock < prefetch_clock_)
      << "Push(clock=" << clock << ") racing in-flight prefetch for clock "
      << prefetch_clock_;
  // The split by partition needs the layout, and checking the keys here
  // keeps a bad update from reaching it (or the server).
  HETPS_RETURN_NOT_OK(EnsureLayout());
  if (update.MinimumDimension() > layout_->partitioner.dim()) {
    return Status::InvalidArgument("update index out of range");
  }
  if (push_window_ == 0) {
    const Clock::time_point start = Clock::now();
    const Status st =
        transport_->Push(clock, update, layout_->partitioner);
    breakdown_.comm_seconds += SecondsSince(start);
    HETPS_RETURN_NOT_OK(st);
  } else {
    // Only the backpressure block (window full) costs the owner wall
    // time — the part of push latency the pipeline failed to hide.
    {
      std::unique_lock<std::mutex> lock(send_mu_);
      if (inflight_ >= push_window_ && push_error_.ok()) {
        const Clock::time_point start = Clock::now();
        space_cv_.wait(lock, [this] {
          return inflight_ < push_window_ || !push_error_.ok();
        });
        const double blocked = SecondsSince(start);
        owner_blocked_seconds_ += blocked;
        breakdown_.comm_seconds += blocked;
      }
      HETPS_RETURN_NOT_OK(push_error_);
      send_queue_.push_back(PendingPush{clock, update});
      ++inflight_;
      if (inflight_ > inflight_peak_) {
        inflight_peak_ = inflight_;
        inflight_peak_gauge_->Set(static_cast<double>(inflight_peak_));
      }
      inflight_gauge_->Add(1.0);
    }
    send_cv_.notify_one();
  }
  ++breakdown_.clocks_completed;
  ++push_count_;
  return Status::OK();
}

Status PsClient::EnsureLayout() {
  if (layout_.has_value()) return Status::OK();
  Result<PsLayout> layout = transport_->Layout();
  HETPS_RETURN_NOT_OK(layout.status());
  layout_.emplace(std::move(layout).value());
  return Status::OK();
}

Result<bool> PsClient::NeedsPull(int clock) {
  HETPS_RETURN_NOT_OK(EnsureLayout());
  return layout_->sync.NeedsPull(clock, cached_cmin_);
}

Result<bool> PsClient::MaybePull(int clock, std::vector<double>* replica) {
  const Result<bool> due = NeedsPull(clock);
  if (!due.ok() || !due.value()) return due;
  HETPS_RETURN_NOT_OK(PullBlocking(clock + 1, replica));
  return true;
}

Status PsClient::PullBlocking(int next_clock, std::vector<double>* replica) {
  HETPS_RETURN_NOT_OK(WaitUntilCanAdvance(next_clock));
  return Refresh(replica);
}

Status PsClient::WaitUntilCanAdvance(int next_clock) {
  // The admission decision depends on the clock table this worker's own
  // queued pushes advance, so they land first (and a latched failure,
  // e.g. eviction, returns here instead of waiting forever).
  HETPS_RETURN_NOT_OK(Flush());
  HETPS_TRACE_SPAN1("worker.wait", "worker", worker_id_);
  const Clock::time_point start = Clock::now();
  const Status st = transport_->WaitUntilCanAdvance(next_clock, nullptr);
  breakdown_.wait_seconds += SecondsSince(start);
  return st;
}

Status PsClient::OwnerPull(bool cached, std::vector<double>* replica,
                           int* cmin) {
  // The prefetch task owns the replica cache until FinishPrefetch.
  HETPS_CHECK(!prefetch_.has_value()) << "pull racing in-flight prefetch";
  // Read-your-writes: the refreshed replica reflects this worker's own
  // pushed clocks.
  HETPS_RETURN_NOT_OK(Flush());
  HETPS_RETURN_NOT_OK(EnsureLayout());
  const Clock::time_point start = Clock::now();
  int c = 0;
  const Status st = Fetch(cached, replica, &c);
  breakdown_.comm_seconds += SecondsSince(start);
  HETPS_RETURN_NOT_OK(st);
  cached_cmin_ = c;
  if (cmin != nullptr) *cmin = c;
  ++pull_count_;
  return Status::OK();
}

Status PsClient::Fetch(bool cached, std::vector<double>* replica,
                       int* cmin) {
  if (cache_.empty()) {
    cache_.assign(static_cast<size_t>(layout_->partitioner.dim()), 0.0);
  }
  // No tags: every partition ships whole, so the cache ends holding the
  // whole model (and stays warm for the next cached pull).
  if (!cached || cached_tags_.empty()) {
    cached_tags_.assign(
        static_cast<size_t>(layout_->partitioner.num_partitions()),
        kNoCachedTag);
  }
  for (int attempt = 0; attempt < kMaxTagAttempts; ++attempt) {
    DeltaPullResult delta;
    HETPS_RETURN_NOT_OK(transport_->PullDelta(cached_tags_, &delta));
    if (cached) {
      pulled_bytes_ += delta.bytes_shipped;
      pulled_bytes_full_ += delta.bytes_full;
    }
    bool mismatch = false;
    for (const PartitionPull& piece : delta.partitions) {
      HETPS_RETURN_NOT_OK(ApplyPartitionPull(
          layout_->partitioner, piece, &cache_, &cached_tags_, &mismatch));
    }
    if (!mismatch) {
      *replica = cache_;  // the trainer gets a mutable copy
      *cmin = delta.cmin;
      return Status::OK();
    }
    // Mismatched partitions had their tags reset; the retry ships them
    // whole. One more round trip normally suffices.
  }
  return Status::Internal("pull patch base tags kept mismatching");
}

void PsClient::StartPrefetch(int next_clock) {
  HETPS_CHECK(!prefetch_.has_value()) << "prefetch already in flight";
  // The layout is owner-thread state: fetch it before the task reads it.
  const Status layout = EnsureLayout();
  prefetch_clock_ = next_clock;
  prefetch_ = std::async(std::launch::async, [this, next_clock, layout] {
    Prefetched result;
    result.status = layout;
    if (result.status.ok()) {
      result.status =
          transport_->WaitUntilCanAdvance(next_clock, &cancel_prefetch_);
    }
    if (result.status.ok()) {
      result.status = Fetch(delta_pull_, &result.replica, &result.cmin);
    }
    return result;
  });
}

Result<bool> PsClient::FinishPrefetch(std::vector<double>* replica) {
  if (!prefetch_.has_value()) return false;
  // Only the un-overlapped remainder counts as wait: the async pull ran
  // beside the clock's computation.
  const Clock::time_point start = Clock::now();
  Prefetched result = prefetch_->get();
  breakdown_.wait_seconds += SecondsSince(start);
  prefetch_.reset();
  prefetch_clock_ = -1;
  HETPS_RETURN_NOT_OK(result.status);
  *replica = std::move(result.replica);
  cached_cmin_ = result.cmin;
  ++pull_count_;
  return true;
}

void PsClient::CancelPrefetch() {
  if (!prefetch_.has_value()) return;
  // The task may be parked in the admission wait with no push ever
  // coming (the trainer aborted): raise the flag, wake the waiters, then
  // join — the task returns instead of outliving the server.
  cancel_prefetch_.store(true, std::memory_order_release);
  transport_->WakeWaiters();
  prefetch_->wait();
  prefetch_.reset();
  cancel_prefetch_.store(false, std::memory_order_release);
  prefetch_clock_ = -1;
}

Result<bool> PsClient::CanAdvance(int next_clock) {
  HETPS_RETURN_NOT_OK(Flush());
  return transport_->CanAdvance(next_clock);
}

Status PsClient::ReportClock(int clock, double seconds) {
  const Clock::time_point start = Clock::now();
  const Status st = transport_->ReportClock(clock, seconds);
  breakdown_.comm_seconds += SecondsSince(start);
  return st;
}

Status PsClient::Readmit(int clock) {
  if (push_window_ >= 1) {
    (void)Flush();
    std::lock_guard<std::mutex> lock(send_mu_);
    push_error_ = Status::OK();
  }
  return transport_->Readmit(clock);
}

}  // namespace hetps
