#include "engine/threaded_trainer.h"

#include <chrono>
#include <thread>

#include "core/sgd_compute.h"
#include "data/sharding.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace hetps {

ThreadedTrainResult TrainThreaded(const Dataset& dataset,
                                  const LossFunction& loss,
                                  const LearningRateSchedule& schedule,
                                  const ConsolidationRule& rule_proto,
                                  const ThreadedTrainerOptions& options) {
  HETPS_CHECK(options.num_workers > 0) << "need workers";
  HETPS_CHECK(dataset.size() > 0) << "empty dataset";
  HETPS_CHECK(options.worker_sleep_seconds.empty() ||
              options.worker_sleep_seconds.size() ==
                  static_cast<size_t>(options.num_workers))
      << "worker_sleep_seconds size mismatch";

  PsOptions ps_opts;
  ps_opts.num_servers = options.num_servers;
  ps_opts.partitions_per_server = options.partitions_per_server;
  ps_opts.scheme = options.scheme;
  ps_opts.sync = options.sync;
  ps_opts.partition_sync = options.partition_sync;
  ps_opts.update_filter_epsilon = options.update_filter_epsilon;
  ps_opts.push_parallelism = options.push_parallelism;
  ParameterServer ps(dataset.dimension(), options.num_workers, rule_proto,
                     ps_opts);

  const std::vector<DataShard> shards =
      SplitData(dataset.size(), static_cast<size_t>(options.num_workers),
                ShardingPolicy::kContiguous);

  ThreadedTrainResult result;
  std::vector<double> trace;  // written only by worker-0 thread
  // Per-worker slots, each written only by its own thread before join.
  std::vector<WorkerTimeBreakdown> breakdowns(
      static_cast<size_t>(options.num_workers));
  Stopwatch watch;

  auto worker_body = [&](int m) {
    HistogramMetric* iter_us = GlobalMetrics().histogram(
        "worker.iter_us", {{"worker", std::to_string(m)}});
    LocalWorkerSgd::Options sgd_opts;
    sgd_opts.batch_size = LocalWorkerSgd::BatchSizeForFraction(
        shards[static_cast<size_t>(m)].size(), options.batch_fraction);
    sgd_opts.l2 = options.l2;
    LocalWorkerSgd sgd(&dataset, shards[static_cast<size_t>(m)], &loss,
                       &schedule, sgd_opts);
    std::vector<double> replica(static_cast<size_t>(dataset.dimension()),
                                0.0);
    WorkerClient client(m, &ps, options.delta_pull, options.push_window);
    const double sleep_s = options.worker_sleep_seconds.empty()
                               ? 0.0
                               : options.worker_sleep_seconds
                                     [static_cast<size_t>(m)];
    WorkerTimeBreakdown& breakdown = breakdowns[static_cast<size_t>(m)];
    for (int c = 0; c < options.max_clocks; ++c) {
      HETPS_TRACE_SPAN2("worker.clock", "worker", m, "clock", c);
      const auto iter_start = std::chrono::steady_clock::now();
      // The pull decision (Algorithm 1 line 8) depends only on state
      // known before the clock runs, so a prefetch can overlap the
      // admission wait and transfer with this clock's computation.
      const bool will_pull =
          ps.options().sync.NeedsPull(c, client.cached_cmin());
      if (options.prefetch && will_pull) {
        client.StartPrefetch(c + 1);
      }
      SparseVector update;
      {
        // Compute = the injected straggler sleep (emulated slow CPU)
        // plus the real gradient work.
        HETPS_TRACE_SPAN1("worker.compute", "worker", m);
        const auto compute_start = std::chrono::steady_clock::now();
        if (sleep_s > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(sleep_s));
        }
        sgd.RunClock(c, &replica, &update);
        breakdown.compute_seconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - compute_start)
                .count();
      }
      HETPS_CHECK_OK(client.Push(c, update));
      if (m == 0) {
        const size_t n = options.eval_sample == 0 ? dataset.size()
                                                  : options.eval_sample;
        trace.push_back(
            dataset.ObjectiveSample(loss, replica, options.l2, n));
      }
      if (options.prefetch) {
        if (will_pull) {
          HETPS_CHECK_OK(client.FinishPrefetch(&replica).status());
        }
      } else {
        HETPS_CHECK_OK(client.MaybePull(c, &replica).status());
      }
      iter_us->RecordInt(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - iter_start)
              .count());
      if (m == 0 && options.on_epoch) options.on_epoch(c + 1);
    }
    // Drain the push pipeline before reading the breakdown: the last
    // clocks' pushes may still be in flight, and push_hidden_seconds is
    // finalized by the drain.
    HETPS_CHECK_OK(client.Flush());
    // The client's comm/wait split plus the compute tracked above.
    const double compute_seconds = breakdown.compute_seconds;
    breakdown = client.breakdown();
    breakdown.compute_seconds = compute_seconds;
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options.num_workers));
  for (int m = 0; m < options.num_workers; ++m) {
    threads.emplace_back(worker_body, m);
  }
  for (auto& t : threads) t.join();

  result.wall_seconds = watch.ElapsedSeconds();
  for (int m = 0; m < options.num_workers; ++m) {
    RecordBreakdown(&GlobalMetrics(), m,
                    breakdowns[static_cast<size_t>(m)]);
  }
  result.worker_breakdown = std::move(breakdowns);
  result.weights = ps.Snapshot();
  result.objective_per_clock = std::move(trace);
  result.total_pushes =
      static_cast<int64_t>(options.num_workers) * options.max_clocks;
  const size_t n =
      options.eval_sample == 0 ? dataset.size() : options.eval_sample;
  result.final_objective =
      dataset.ObjectiveSample(loss, result.weights, options.l2, n);
  return result;
}

}  // namespace hetps
