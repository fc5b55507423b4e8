#ifndef HETPS_PS_WORKER_CLIENT_H_
#define HETPS_PS_WORKER_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ps/parameter_server.h"
#include "ps/ps_client.h"
#include "util/logging.h"

namespace hetps {

/// PsTransport that calls a shared, locked ParameterServer directly —
/// the threaded runtime's wire. Nothing is serialized and nothing fails.
class InProcessTransport : public PsTransport {
 public:
  /// `ps` must outlive the transport.
  InProcessTransport(ParameterServer* ps, int worker_id)
      : ps_(ps), worker_(worker_id) {
    HETPS_CHECK(ps != nullptr) << "null ParameterServer";
    HETPS_CHECK(worker_id >= 0 && worker_id < ps->num_workers())
        << "worker id out of range";
  }

  Result<PsLayout> Layout() override {
    return PsLayout{ps_->partitioner(), ps_->options().sync};
  }
  Status Push(int clock, const SparseVector& update,
              const Partitioner& /*layout*/) override {
    ps_->Push(worker_, clock, update);
    return Status::OK();
  }
  Status PullDelta(const std::vector<int64_t>& cached_tags,
                   DeltaPullResult* result) override {
    *result = ps_->PullDelta(worker_, cached_tags);
    return Status::OK();
  }
  Result<bool> CanAdvance(int next_clock) override {
    return ps_->CanAdvance(worker_, next_clock);
  }
  Status WaitUntilCanAdvance(int next_clock,
                             const std::atomic<bool>* cancel) override {
    return ps_->WaitUntilCanAdvance(worker_, next_clock, cancel)
               ? Status::OK()
               : Status::Aborted("admission wait cancelled");
  }
  void WakeWaiters() override { ps_->WakeClockWaiters(); }
  Status ReportClock(int /*clock*/, double seconds) override {
    ps_->master()->ReportClockTime(worker_, seconds);
    return Status::OK();
  }
  Status Readmit(int clock) override {
    return ps_->ReadmitWorker(worker_, clock);
  }
  MetricsRegistry* metrics() override { return ps_->metrics(); }

 private:
  ParameterServer* ps_;
  int worker_;
};

/// PsClient over an InProcessTransport. `delta_pull` enables the
/// partition replica cache (off = every pull ships the whole model);
/// `push_window` bounds the asynchronous push pipeline (0 = synchronous).
class WorkerClient final : public PsClient {
 public:
  WorkerClient(int worker_id, ParameterServer* ps, bool delta_pull = true,
               int push_window = 0)
      : PsClient(worker_id,
                 std::make_unique<InProcessTransport>(ps, worker_id),
                 delta_pull, push_window) {}
};

}  // namespace hetps

#endif  // HETPS_PS_WORKER_CLIENT_H_
