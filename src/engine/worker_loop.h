#ifndef HETPS_ENGINE_WORKER_LOOP_H_
#define HETPS_ENGINE_WORKER_LOOP_H_

#include <functional>
#include <vector>

#include "obs/breakdown.h"
#include "ps/ps_client.h"

namespace hetps {

/// One worker's Algorithm 1 (compute, push, pull only when cp is too
/// stale) over clocks [first_clock, end_clock): the compute step and the
/// hooks a runtime hangs around it.
struct WorkerLoop {
  int first_clock = 0;
  int end_clock = 0;
  /// Injected sleep before each clock's compute (the paper's sleep()-based
  /// straggler emulation, §3); it counts as compute time.
  double compute_delay_seconds = 0.0;
  /// Appendix D pre-fetching: a clock that will pull starts the pull
  /// before its compute and installs the result after its push.
  bool prefetch = false;
  /// Runs one clock on `replica` (updating it locally) and fills `update`.
  std::function<void(int clock, std::vector<double>* replica,
                     SparseVector* update)>
      compute;
  /// Optional, before each clock. False stops the worker at once, without
  /// draining its push window (a crash-stop sends nothing more).
  std::function<bool(int clock)> before_clock;
  /// Optional, between each clock's push and its pull.
  std::function<Status(int clock, double compute_seconds)> after_push;
  /// Worker 0 only, after each clock: the number of clocks run so far.
  std::function<void(int)> on_epoch;
};

/// Runs `loop` over `client` from `*replica`: the worker.clock and
/// worker.compute spans, the worker.iter_us / worker.compute_us /
/// worker.wait_us histograms (wait on clocks that pull) and the final
/// Flush. On every return it publishes the breakdown gauges (see
/// RecordBreakdown) and stores the breakdown in `*breakdown` (may be
/// null): the client's comm/wait split plus the compute time.
Status RunWorker(const WorkerLoop& loop, PsClient* client,
                 std::vector<double>* replica,
                 WorkerTimeBreakdown* breakdown);

/// Runs `body(m)` on one thread per worker m in [0, num_workers); joins.
void RunWorkerThreads(int num_workers, const std::function<void(int)>& body);

}  // namespace hetps

#endif  // HETPS_ENGINE_WORKER_LOOP_H_
