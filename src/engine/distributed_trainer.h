#ifndef HETPS_ENGINE_DISTRIBUTED_TRAINER_H_
#define HETPS_ENGINE_DISTRIBUTED_TRAINER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "core/sync_policy.h"
#include "data/dataset.h"
#include "math/loss.h"
#include "net/message_bus.h"
#include "net/ps_service.h"
#include "obs/breakdown.h"
#include "util/status.h"

namespace hetps {

/// The fully-distributed execution path: worker threads talk to the
/// parameter-server service exclusively through the serialized message
/// bus (src/net) — no shared-memory shortcut — with optional periodic
/// checkpointing for failure recovery. This mirrors the deployed
/// prototype's architecture (Appendix D) as closely as an in-process
/// build can.
struct DistributedTrainerOptions {
  SyncPolicy sync = SyncPolicy::Ssp(3);
  int max_clocks = 20;
  double l2 = 1e-4;
  double batch_fraction = 0.1;
  int num_workers = 4;
  int num_servers = 2;
  bool partition_sync = false;
  /// Write a checkpoint every N clocks of worker 0 (0 = never).
  int checkpoint_every_clocks = 0;
  std::string checkpoint_path = "/tmp/hetps_distributed.ckpt";
  /// Resume from `checkpoint_path` before training (workers re-pull and
  /// continue from `resume_clock`).
  bool resume = false;
  int resume_clock = 0;
  size_t eval_sample = 2000;
  /// Unused; kept while perfledger/ledger.cc sets it.
  uint64_t seed = 11;
  /// Deterministic fault injection on the bus (drops/delays/duplicates).
  /// With the default retry policy the run converges through a lossy
  /// bus; see DESIGN.md "Concurrency & fault model".
  FaultPlan fault_plan = FaultPlan::None();
  /// Per-RPC timeout/backoff for the worker clients.
  RpcRetryPolicy rpc_retry = RpcRetryPolicy();
  /// Version-aware pull path (§6): workers pull through the client-side
  /// partition cache (PsClient::PullCached) so only changed
  /// partitions cross the bus. Off = every pull ships the whole model.
  bool delta_pull = true;
  /// Asynchronous push pipeline (PsClient): 0 = synchronous push
  /// RPCs (the pre-pipeline behavior), >= 1 = bounded in-flight window
  /// (1 = double-buffer: compute clock c+1 while the push RPC of clock c
  /// is in flight). Push retries stay safe: the service dedups by
  /// (worker, clock).
  int push_window = 0;
  /// Called on worker 0's thread after each of its clocks (1-based
  /// count); RunReporter::OnEpoch hooks in here. Keep it cheap.
  std::function<void(int)> on_epoch;
  /// Heartbeat-driven worker eviction (the SSP liveness repair): evict a
  /// worker whose last request is older than this many *virtual* seconds
  /// — time advances with every request the service handles
  /// (virtual_seconds_per_request each), so detection needs no
  /// wall-clock sleeps. <= 0 disables the liveness plane, restoring the
  /// pre-repair behavior where one dead worker pins cmin forever.
  double heartbeat_timeout = 0.0;
  /// When false, dead workers are only counted as suspected, never
  /// evicted (A/B knob for demonstrating the deadlock).
  bool evict_dead_workers = true;
  /// Scale of the request-tick virtual clock.
  double virtual_seconds_per_request = 1e-3;
  /// Overrides the virtual clock with caller-supplied time (tests).
  std::function<double()> heartbeat_now_fn;
  /// --- Load-balancing plane (straggler-aware live rebalancing) ---
  /// Workers report their measured compute time per clock (kReportClock)
  /// and the service-side balancer migrates examples from persistent
  /// stragglers to fast workers at clock boundaries, via the same
  /// owned-shard machinery that backs eviction failover.
  bool rebalance = false;
  /// Flag workers slower than this multiple of the fastest (FlexRR 1.2).
  double straggler_threshold = 1.2;
  /// Consecutive flagged clocks before the first migration.
  int rebalance_hysteresis = 3;
  /// Fraction of the straggler's shard shed per flagged clock.
  double reassign_fraction = 0.05;
  /// Hard cap on examples moved per decision (0 = uncapped).
  size_t rebalance_max_per_round = 0;
  /// Consecutive clean clocks before lent examples are reclaimed.
  int rebalance_recovery_windows = 3;
  /// Never shrink a shard below this many examples.
  size_t rebalance_min_shard = 8;
  /// Per-worker artificial compute delay in wall seconds per clock — the
  /// paper's slowdown-injection protocol for straggler experiments.
  /// Empty = no injection; shorter than num_workers is zero-padded.
  std::vector<double> injected_compute_delay;
  /// Unix-socket path for the live-introspection gateway. When non-empty,
  /// a StatusGateway is bound here for the lifetime of the run so
  /// external tools (`hetps_train top` / `dump-status` / `obs-ctl`) can
  /// issue kStatus / kMetricsScrape / kObsControl against the running
  /// service. Empty = no gateway.
  std::string serve_status_path;
};

struct DistributedTrainResult {
  std::vector<double> weights;
  std::vector<double> objective_per_clock;  // worker 0
  double final_objective = 0.0;
  int64_t messages = 0;
  /// Faults the bus injected during the run (all zero without a plan).
  FaultStats faults;
  /// RPC attempts beyond the first, summed over all worker clients.
  int64_t rpc_retries = 0;
  /// Clock after the last one executed (pass as resume_clock).
  int next_clock = 0;
  /// Per-worker compute/comm/wait split (wall seconds) — Figure 6 for
  /// the RPC runtime. Comm covers push+pull RPCs (retries included);
  /// wait covers the CanAdvance polling loop. Also published to
  /// GlobalMetrics() as worker.*_seconds{worker=m} gauges.
  std::vector<WorkerTimeBreakdown> worker_breakdown;
  /// Workers evicted by the heartbeat plane, in eviction order.
  std::vector<int> evicted_workers;
  /// Survivor shards that received examples from evicted workers.
  int64_t shard_reassignments = 0;
  /// Examples moved off evicted workers' shards onto survivors.
  int64_t examples_failed_over = 0;
  /// --- Load-balancing plane accounting (rebalance = true) ---
  /// Examples migrated off persistent stragglers onto fast workers.
  int64_t examples_rebalanced = 0;
  /// Examples reclaimed by recovered stragglers (the return path).
  int64_t examples_returned = 0;
  /// Individual migration decisions (both directions).
  int64_t lb_migrations = 0;
};

Result<DistributedTrainResult> TrainDistributed(
    const Dataset& dataset, const LossFunction& loss,
    const LearningRateSchedule& schedule,
    const ConsolidationRule& rule_proto,
    const DistributedTrainerOptions& options);

}  // namespace hetps

#endif  // HETPS_ENGINE_DISTRIBUTED_TRAINER_H_
