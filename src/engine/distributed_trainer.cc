#include "engine/distributed_trainer.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/sgd_compute.h"
#include "data/sharding.h"
#include "engine/worker_loop.h"
#include "net/ps_service.h"
#include "net/status_gateway.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ps/checkpoint.h"
#include "ps/load_balancer.h"
#include "ps/parameter_server.h"
#include "util/logging.h"

namespace hetps {

Result<DistributedTrainResult> TrainDistributed(
    const Dataset& dataset, const LossFunction& loss,
    const LearningRateSchedule& schedule,
    const ConsolidationRule& rule_proto,
    const DistributedTrainerOptions& options) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (options.num_workers <= 0 || options.num_servers <= 0) {
    return Status::InvalidArgument("need positive worker/server counts");
  }
  if (options.max_clocks <= 0) {
    return Status::InvalidArgument("max_clocks must be positive");
  }
  if (options.resume && options.resume_clock < 0) {
    return Status::InvalidArgument("resume_clock must be >= 0");
  }
  if (options.fault_plan.fault_worker >= options.num_workers) {
    return Status::InvalidArgument("fault_worker out of range");
  }

  PsOptions ps_opts;
  ps_opts.num_servers = options.num_servers;
  ps_opts.sync = options.sync;
  ps_opts.partition_sync = options.partition_sync;
  ParameterServer ps(dataset.dimension(), options.num_workers, rule_proto,
                     ps_opts);
  if (options.resume) {
    HETPS_RETURN_NOT_OK(
        RestoreCheckpointFromFile(&ps, options.checkpoint_path));
  }

  MessageBus bus;
  if (options.fault_plan.enabled()) {
    bus.SetFaultPlan(options.fault_plan);
  }

  const std::vector<DataShard> shards =
      SplitData(dataset.size(), static_cast<size_t>(options.num_workers),
                ShardingPolicy::kContiguous);

  // --- Shard entitlement plane ------------------------------------------
  // `owned[m]` is worker m's authoritative example entitlement; the
  // worker's local SGD shard is a *copy* it refreshes at clock boundaries.
  // Two service-loop mechanisms mutate entitlements, with the same
  // data/sharding.h primitives the simulator uses:
  //   - eviction failover (on_evict): ReassignAcross spreads the victim's
  //     owned[] evenly across the survivors — `owned` mirrors the full
  //     entitlement so a cascading eviction re-fails-over adopted
  //     examples exactly once;
  //   - live rebalancing (on_clock_report): the LoadBalancer's moves are
  //     ReassignTail calls, from persistent stragglers to fast workers,
  //     and back.
  // Both bump `shard_gen[m]`; a worker whose seen generation is stale
  // copies owned[m] into its SGD shard before the next clock, so grows
  // AND shrinks land atomically at clock boundaries — a batch never
  // changes mid-compute and SSP admission is untouched.
  const size_t n_workers = static_cast<size_t>(options.num_workers);
  std::mutex failover_mu;
  std::vector<DataShard> owned = shards;          // guarded by failover_mu
  std::vector<uint64_t> shard_gen(n_workers, 0);  // guarded by failover_mu
  std::unique_ptr<std::atomic<bool>[]> evicted(
      new std::atomic<bool>[n_workers]);
  for (size_t m = 0; m < n_workers; ++m) evicted[m].store(false);
  std::vector<int> evicted_order;             // guarded by failover_mu
  int64_t shard_reassignments = 0;            // guarded by failover_mu
  int64_t examples_failed_over = 0;           // guarded by failover_mu

  std::unique_ptr<LoadBalancer> lb;
  if (options.rebalance) {
    LoadBalancerOptions lb_opts;
    lb_opts.straggler_threshold = options.straggler_threshold;
    lb_opts.hysteresis = options.rebalance_hysteresis;
    lb_opts.reassign_fraction = options.reassign_fraction;
    lb_opts.max_examples_per_round = options.rebalance_max_per_round;
    lb_opts.min_shard_size = options.rebalance_min_shard;
    lb_opts.recovery_windows = options.rebalance_recovery_windows;
    lb = std::make_unique<LoadBalancer>(options.num_workers, lb_opts);
  }

  PsServiceOptions svc_opts;
  if (lb != nullptr) {
    // Runs on the single service-loop thread after the master's straggler
    // statistics absorbed the report; entitlement edits land under
    // failover_mu and workers pick them up at their next clock boundary.
    svc_opts.on_clock_report = [&](int worker, int clock, double seconds) {
      std::lock_guard<std::mutex> lock(failover_mu);
      std::vector<size_t> sizes(n_workers);
      for (size_t m = 0; m < n_workers; ++m) sizes[m] = owned[m].size();
      const std::vector<ShardMove> moves =
          lb->OnClockReport(worker, clock, seconds, ps.master(), sizes);
      for (const ShardMove& mv : moves) {
        const size_t from = static_cast<size_t>(mv.from);
        const size_t to = static_cast<size_t>(mv.to);
        if (ReassignTail(&owned[from], &owned[to], mv.count) == 0) continue;
        ++shard_gen[from];
        ++shard_gen[to];
      }
    };
  }
  svc_opts.liveness.heartbeat_timeout_seconds = options.heartbeat_timeout;
  svc_opts.liveness.evict_dead_workers = options.evict_dead_workers;
  svc_opts.liveness.virtual_seconds_per_request =
      options.virtual_seconds_per_request;
  svc_opts.liveness.now_fn = options.heartbeat_now_fn;
  svc_opts.liveness.on_evict = [&](int victim) {
    std::lock_guard<std::mutex> lock(failover_mu);
    evicted[static_cast<size_t>(victim)].store(true,
                                               std::memory_order_release);
    evicted_order.push_back(victim);
    // The victim's entitlement (borrowed examples included) is spread
    // below; its loan-ledger entries can never be repaid.
    if (lb != nullptr) lb->OnWorkerEvicted(victim);
    ++shard_gen[static_cast<size_t>(victim)];
    std::vector<DataShard*> survivors;
    for (size_t m = 0; m < n_workers; ++m) {
      if (evicted[m].load(std::memory_order_acquire)) continue;
      survivors.push_back(&owned[m]);
      ++shard_gen[m];
    }
    const size_t moved =
        ReassignAcross(&owned[static_cast<size_t>(victim)], survivors);
    if (moved == 0) return;
    const int64_t touched =
        static_cast<int64_t>(std::min(survivors.size(), moved));
    shard_reassignments += touched;
    examples_failed_over += static_cast<int64_t>(moved);
    GlobalMetrics()
        .counter("ps.shard_reassignments")
        ->Increment(touched);
    HETPS_TRACE_INSTANT1("ps.shard_failover", "worker", victim);
    FlightRecorder::Global().Record("shard_failover", victim, /*clock=*/-1,
                                    static_cast<double>(moved));
    HETPS_LOG(Info) << "failover: worker " << victim << "'s " << moved
                    << " examples spread across "
                    << survivors.size() << " survivors";
  };

  // Enrich kStatus snapshots with trainer-plane state the PS alone cannot
  // see: the configured push window and the load balancer's loan ledger /
  // migration totals. Runs on the service loop; the ledger is read under
  // failover_mu, the same lock that serializes every other LoadBalancer
  // access.
  svc_opts.status_decorator = [&](StatusSnapshot* snap) {
    snap->push_window = options.push_window;
    std::lock_guard<std::mutex> lock(failover_mu);
    if (lb == nullptr) return;
    snap->examples_moved = lb->examples_moved();
    snap->examples_returned = lb->examples_returned();
    snap->migrations = lb->migrations();
    for (WorkerStatus& w : snap->workers) {
      if (w.worker >= 0 && w.worker < static_cast<int>(n_workers)) {
        w.loans_out = static_cast<int64_t>(lb->OutstandingLoans(w.worker));
      }
    }
  };

  PsService service(&ps, &bus, "ps", svc_opts);
  HETPS_RETURN_NOT_OK(service.status());

  // Declared after `bus` and `service` so it stops (joining its thread,
  // which calls into the bus) before either is torn down.
  StatusGateway gateway;
  if (!options.serve_status_path.empty()) {
    HETPS_RETURN_NOT_OK(
        gateway.Start(options.serve_status_path, &bus, "ps"));
    HETPS_LOG(Info) << "introspection gateway listening on "
                    << options.serve_status_path;
  }
  const int start_clock = options.resume ? options.resume_clock : 0;
  const int end_clock = start_clock + options.max_clocks;

  const size_t eval_n =
      options.eval_sample == 0 ? dataset.size() : options.eval_sample;
  DistributedTrainResult result;
  Status checkpoint_status;            // written only by worker 0
  std::vector<Status> worker_status(
      static_cast<size_t>(options.num_workers));
  std::vector<int64_t> worker_retries(
      static_cast<size_t>(options.num_workers), 0);
  // Per-worker slots, each written only by its own thread before join.
  result.worker_breakdown.resize(static_cast<size_t>(options.num_workers));

  RunWorkerThreads(options.num_workers, [&](int m) {
    const size_t mi = static_cast<size_t>(m);
    PsClient client(
        m, std::make_unique<BusTransport>(m, &bus, "ps", options.rpc_retry),
        options.delta_pull, options.push_window);
    LocalWorkerSgd::Options sgd_opts;
    sgd_opts.batch_size = LocalWorkerSgd::BatchSizeForFraction(
        shards[mi].size(), options.batch_fraction);
    sgd_opts.l2 = options.l2;
    LocalWorkerSgd sgd(&dataset, shards[mi], &loss, &schedule, sgd_opts);
    // Entitlement generation this worker's SGD shard reflects; refreshed
    // from owned[m] at clock boundaries when the service loop moved
    // examples (failover or rebalancing).
    uint64_t seen_gen = 0;
    WorkerLoop loop;
    loop.first_clock = start_clock;
    loop.end_clock = end_clock;
    loop.compute_delay_seconds = mi < options.injected_compute_delay.size()
                                     ? options.injected_compute_delay[mi]
                                     : 0.0;
    loop.on_epoch = options.on_epoch;
    loop.compute = std::bind_front(&LocalWorkerSgd::RunClock, &sgd);
    loop.before_clock = [&](int c) {
      // Injected process faults (FaultPlan.fault_worker), applied just
      // before this clock starts.
      const FaultPlan& fault = options.fault_plan;
      if (m == fault.fault_worker && c == fault.kill_at_clock) {
        if (fault.hang_seconds <= 0.0) {
          // Crash-stop: the worker simply stops sending, forever. Not an
          // error — the run's verdict is the survivors' business.
          HETPS_LOG(Warning) << "fault injection: killing worker " << m
                             << " before clock " << c;
          FlightRecorder::Global().Record("fault.kill", m, c);
          return false;
        }
        // Temporary hang: go silent for hang_seconds of virtual time. The
        // clock only advances while other workers' requests tick the
        // service, so this needs no wall-clock sleep. Own eviction is an
        // exit condition — once evicted, ticks may stop (the survivors
        // finish) and the resume time would never arrive.
        FlightRecorder::Global().Record("fault.hang", m, c, fault.hang_seconds);
        const double resume_at = service.LivenessNow() + fault.hang_seconds;
        while (service.LivenessNow() < resume_at &&
               !evicted[mi].load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
      // Refresh the SGD shard from the owned[] entitlement when the
      // service loop changed it (eviction failover or rebalancing) —
      // copied at clock boundaries so a batch never changes mid-compute.
      std::lock_guard<std::mutex> lock(failover_mu);
      if (shard_gen[mi] != seen_gen) {
        *sgd.mutable_shard() = owned[mi];
        seen_gen = shard_gen[mi];
      }
      return true;
    };
    std::vector<double> replica;
    loop.after_push = [&](int c, double compute_seconds) -> Status {
      if (options.rebalance) {
        // Feed the load-balancing plane this clock's measured compute
        // time (kReportClock drives Master::ReportClockTime and the
        // balancer's decision on the service loop).
        HETPS_RETURN_NOT_OK(client.ReportClock(c, compute_seconds));
      }
      if (m != 0) return Status::OK();
      result.objective_per_clock.push_back(
          dataset.ObjectiveSample(loss, replica, options.l2, eval_n));
      if (options.checkpoint_every_clocks > 0 &&
          (c + 1 - start_clock) % options.checkpoint_every_clocks == 0) {
        // Checkpointing runs beside live traffic; the PS serializes
        // shard access internally.
        Status st = SaveCheckpointToFile(ps, options.checkpoint_path);
        if (!st.ok()) checkpoint_status = st;
      }
      return Status::OK();
    };
    // A (re)starting worker pulls the latest parameter from the PS.
    Status st = client.Refresh(&replica);
    if (st.ok()) {
      st = RunWorker(loop, &client, &replica, &result.worker_breakdown[mi]);
    }
    // An RPC rejected because *this* worker was evicted is the liveness
    // plane working as designed (e.g. a hung worker waking up after its
    // eviction), not a run failure: the run's verdict comes from the
    // survivors.
    if (st.IsFailedPrecondition() &&
        evicted[mi].load(std::memory_order_acquire)) {
      st = Status::OK();
    }
    worker_status[mi] = st;
    worker_retries[mi] = client.retry_count();
  });
  for (size_t m = 0; m < worker_status.size(); ++m) {
    if (!worker_status[m].ok()) {
      // Abnormal worker exit: capture the black box before the error
      // propagates (the caller may tear the process down).
      FlightRecorder::Global().Record("worker_error",
                                      static_cast<int>(m));
      FlightRecorder::Global().DumpNow("worker_error");
      return worker_status[m];
    }
  }
  HETPS_RETURN_NOT_OK(checkpoint_status);

  result.weights = ps.Snapshot();
  result.final_objective =
      dataset.ObjectiveSample(loss, result.weights, options.l2, eval_n);
  result.messages = bus.delivered_count();
  result.faults = bus.fault_stats();
  for (int64_t r : worker_retries) result.rpc_retries += r;
  result.next_clock = end_clock;
  {
    // Workers have joined, but the service loop (which runs on_evict) is
    // still live until `bus` is destroyed — snapshot under the lock.
    std::lock_guard<std::mutex> lock(failover_mu);
    result.evicted_workers = evicted_order;
    result.shard_reassignments = shard_reassignments;
    result.examples_failed_over = examples_failed_over;
    if (lb != nullptr) {
      result.examples_rebalanced = lb->examples_moved();
      result.examples_returned = lb->examples_returned();
      result.lb_migrations = lb->migrations();
    }
  }
  return result;
}

}  // namespace hetps
