#include "engine/threaded_trainer.h"

#include <functional>

#include "core/sgd_compute.h"
#include "data/sharding.h"
#include "engine/worker_loop.h"
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
  const size_t eval_n =
      options.eval_sample == 0 ? dataset.size() : options.eval_sample;
  // Per-worker slots, each written only by its own thread before join.
  result.worker_breakdown.resize(static_cast<size_t>(options.num_workers));
  Stopwatch watch;

  RunWorkerThreads(options.num_workers, [&](int m) {
    const size_t mi = static_cast<size_t>(m);
    LocalWorkerSgd::Options sgd_opts;
    sgd_opts.batch_size = LocalWorkerSgd::BatchSizeForFraction(
        shards[mi].size(), options.batch_fraction);
    sgd_opts.l2 = options.l2;
    LocalWorkerSgd sgd(&dataset, shards[mi], &loss, &schedule, sgd_opts);
    WorkerLoop loop;
    loop.end_clock = options.max_clocks;
    loop.compute_delay_seconds = options.worker_sleep_seconds.empty()
                                     ? 0.0
                                     : options.worker_sleep_seconds[mi];
    loop.prefetch = options.prefetch;
    loop.on_epoch = options.on_epoch;
    loop.compute = std::bind_front(&LocalWorkerSgd::RunClock, &sgd);
    std::vector<double> replica(static_cast<size_t>(dataset.dimension()),
                                0.0);
    if (m == 0) {
      loop.after_push = [&](int, double) {
        result.objective_per_clock.push_back(
            dataset.ObjectiveSample(loss, replica, options.l2, eval_n));
        return Status::OK();
      };
    }
    WorkerClient client(m, &ps, options.delta_pull, options.push_window);
    HETPS_CHECK_OK(
        RunWorker(loop, &client, &replica, &result.worker_breakdown[mi]));
  });

  result.wall_seconds = watch.ElapsedSeconds();
  result.weights = ps.Snapshot();
  result.total_pushes =
      static_cast<int64_t>(options.num_workers) * options.max_clocks;
  result.final_objective =
      dataset.ObjectiveSample(loss, result.weights, options.l2, eval_n);
  return result;
}

}  // namespace hetps
