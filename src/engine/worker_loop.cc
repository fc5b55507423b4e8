#include "engine/worker_loop.h"

#include <chrono>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace hetps {

Status RunWorker(const WorkerLoop& loop, PsClient* client,
                 std::vector<double>* replica,
                 WorkerTimeBreakdown* breakdown) {
  const int m = client->worker_id();
  const MetricLabels labels = {{"worker", std::to_string(m)}};
  MetricsRegistry& metrics = GlobalMetrics();
  HistogramMetric* iter_us = metrics.histogram("worker.iter_us", labels);
  HistogramMetric* compute_us =
      metrics.histogram("worker.compute_us", labels);
  HistogramMetric* wait_us = metrics.histogram("worker.wait_us", labels);
  TraceRecorder::Global().NameThisThread("worker-" + std::to_string(m));
  double compute_seconds = 0.0;
  const auto run = [&]() -> Status {
    for (int c = loop.first_clock; c < loop.end_clock; ++c) {
      if (loop.before_clock && !loop.before_clock(c)) return Status::OK();
      HETPS_TRACE_SPAN2("worker.clock", "worker", m, "clock", c);
      const Stopwatch iter_watch;
      if (loop.prefetch) {
        // The pull decision depends only on state known before the clock
        // runs, so the prefetch overlaps this clock's computation.
        const Result<bool> due = client->NeedsPull(c);
        HETPS_RETURN_NOT_OK(due.status());
        if (due.value()) client->StartPrefetch(c + 1);
      }
      SparseVector update;
      const Stopwatch compute_watch;
      {
        HETPS_TRACE_SPAN1("worker.compute", "worker", m);
        if (loop.compute_delay_seconds > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(loop.compute_delay_seconds));
        }
        loop.compute(c, replica, &update);
      }
      const double clock_compute = compute_watch.ElapsedSeconds();
      compute_seconds += clock_compute;
      compute_us->RecordInt(static_cast<int64_t>(clock_compute * 1e6));
      HETPS_RETURN_NOT_OK(client->Push(c, update));
      if (loop.after_push) {
        HETPS_RETURN_NOT_OK(loop.after_push(c, clock_compute));
      }
      const double wait_before = client->breakdown().wait_seconds;
      const Result<bool> pulled = loop.prefetch
                                      ? client->FinishPrefetch(replica)
                                      : client->MaybePull(c, replica);
      HETPS_RETURN_NOT_OK(pulled.status());
      if (pulled.value()) {
        wait_us->RecordInt(static_cast<int64_t>(
            (client->breakdown().wait_seconds - wait_before) * 1e6));
      }
      iter_us->RecordInt(
          static_cast<int64_t>(iter_watch.ElapsedSeconds() * 1e6));
      if (m == 0 && loop.on_epoch) loop.on_epoch(c + 1 - loop.first_clock);
    }
    // The last pushes may still be in flight: a failure latched after the
    // final Push surfaces here, and the drain finalizes
    // push_hidden_seconds.
    return client->Flush();
  };
  const Status st = run();
  WorkerTimeBreakdown result = client->breakdown();
  result.compute_seconds = compute_seconds;
  RecordBreakdown(&metrics, m, result);
  if (breakdown != nullptr) *breakdown = result;
  return st;
}

void RunWorkerThreads(int num_workers,
                      const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  for (int m = 0; m < num_workers; ++m) threads.emplace_back(body, m);
  for (std::thread& t : threads) t.join();
}

}  // namespace hetps
