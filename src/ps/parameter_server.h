#ifndef HETPS_PS_PARAMETER_SERVER_H_
#define HETPS_PS_PARAMETER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/consolidation.h"
#include "core/sync_policy.h"
#include "math/sparse_vector.h"
#include "obs/metrics.h"
#include "ps/master.h"
#include "ps/partition.h"
#include "ps/server_shard.h"
#include "ps/status.h"
#include "util/status.h"

namespace hetps {

/// Configuration of the in-process parameter-server fabric.
struct PsOptions {
  int num_servers = 1;
  int partitions_per_server = 1;
  PartitionScheme scheme = PartitionScheme::kRangeHash;
  SyncPolicy sync = SyncPolicy::Ssp(3);
  /// Client-side filter: drop |x| <= epsilon update entries before the
  /// push (§5.3); 0 disables.
  double update_filter_epsilon = 0.0;
  /// Version-based partition synchronization through the master (§6);
  /// effective with a deferred-mode DynSGD rule.
  bool partition_sync = false;
  /// Per-shard delta-log depth for version-aware delta pulls (0 disables
  /// delta capture; unchanged-partition detection still works — it only
  /// needs the version stamp). See ServerShard.
  int delta_log_depth = 64;
  /// Registry receiving the PS telemetry (per-shard push/pull latency
  /// histograms, per-worker staleness, admission-wait times). nullptr =
  /// the process-wide GlobalMetrics(). The metric objects are created
  /// once at construction, so recording never takes a registry lock.
  MetricsRegistry* metrics = nullptr;
};

/// Sentinel for "client has no cached replica of this partition".
constexpr int64_t kNoCachedTag = -1;

/// One partition's share of a version-aware pull response.
///
/// `tag` is the partition's *content tag* after this pull: an opaque
/// int64 that is equal across two pulls iff the materialized content is
/// byte-identical (see ParameterServer's tag encoding). The client stores
/// it alongside its cached copy and sends it back on the next pull.
struct PartitionPull {
  enum class Encoding : uint8_t {
    /// Content identical to the client's cached copy — no payload.
    kUnchanged = 0,
    /// Whole block, dense layout (`dense` holds PartitionDim(p) values).
    kDense = 1,
    /// Whole block, sparse layout (`sparse` holds the nonzeros).
    kSparse = 2,
    /// Current values of the keys written since the client's cached
    /// copy (`sparse` holds them; the client overwrites those keys).
    /// Valid only against `base_tag`.
    kSparsePatch = 3,
  };

  int partition = 0;
  Encoding encoding = Encoding::kUnchanged;
  /// Content tag of the partition after this pull.
  int64_t tag = kNoCachedTag;
  /// For kSparsePatch: the cached tag the patch applies on top of. The
  /// client must verify it still holds that exact tag (a retried or
  /// reordered RPC could race a newer response) and fall back to a full
  /// pull on mismatch.
  int64_t base_tag = kNoCachedTag;
  std::vector<double> dense;
  SparseVector sparse;
};

/// Result of a version-aware pull: the changed partitions (all partitions
/// are present; unchanged ones carry no payload), the clock floor, and
/// the wire accounting the comm model / metrics consume.
struct DeltaPullResult {
  std::vector<PartitionPull> partitions;
  int cmin = 0;
  /// Content bytes this response actually ships (headers excluded).
  int64_t bytes_shipped = 0;
  /// Content bytes a cache-less whole-model pull would have shipped.
  int64_t bytes_full = 0;
};

/// The encoding decision for one partition of a pull: what the response
/// carries and what it costs on the wire. ParameterServer::PlanPullPiece
/// returns it without reading the block (the simulator sizes its
/// per-partition message with it); BuildPartitionPull reports the one it
/// served.
struct PiecePullPlan {
  /// False when the cached tag still matches (no payload needed).
  bool changed = true;
  /// True when the response patches the keys written since the cached tag.
  bool patch = false;
  /// Content tag the response carries.
  int64_t tag = kNoCachedTag;
  /// Content bytes the response ships (0 when unchanged). A plan sizes a
  /// whole block as bytes_full; a served pull counts what it ships.
  int64_t bytes = 0;
  /// Content bytes a whole-block ship of the content the rule serves
  /// would cost (50% rule).
  int64_t bytes_full = 0;
};

/// Applies one partition of a pull response to `replica` (a dense copy
/// of the whole model) and records the partition's new content tag in
/// `tags` (one per partition). The one decoder of a PartitionPull, shared
/// by PsClient and the event simulator. The piece is untrusted: a
/// partition id, dense length or sparse index outside `layout` is
/// InvalidArgument. A patch whose base tag `tags` no longer holds is
/// dropped instead: its tag is reset to kNoCachedTag and `*tag_mismatch`
/// set, so the caller re-pulls that partition whole.
Status ApplyPartitionPull(const Partitioner& layout, const PartitionPull& piece,
                          std::vector<double>* replica,
                          std::vector<int64_t>* tags, bool* tag_mismatch);

/// Thread-safe facade over the partitioned server shards, the global clock
/// table, and the master — the "logical PS" the paper's Figure 1 shows.
///
/// The threaded runtime calls Push/PullDelta/WaitUntilCanAdvance directly.
/// The event simulator drives the same calls a partition at a time
/// (PushPieces per arriving piece, PlanPullPiece and BuildPartitionPull
/// per partition) so it can model per-partition message timing.
///
/// ## Lock-ordering discipline (enforced; see DESIGN.md §"Concurrency &
/// fault model")
///
/// The facade owns two lock levels plus leaf locks:
///
///   L1. `clock_mu_`      — clock table (cmin/cmax, SSP admission)
///   L2. `shard_mu_[p]`   — one per shard, ordered by partition index
///   leaf. `Master::mu_`  — internal to Master, never held across calls
///
/// A thread may only acquire locks downward: `clock_mu_` strictly before
/// any `shard_mu_[p]`, and shard mutexes only in increasing partition
/// order. Acquiring `clock_mu_` while holding any shard mutex is
/// forbidden — that inversion was a real ABBA deadlock between
/// SaveCheckpoint (clock→shard) and the partition read (shard→clock),
/// fixed by reading cmax *before* taking the shard lock. Code that needs
/// clock state inside a shard critical section must snapshot it first.
class ParameterServer {
 public:
  ParameterServer(int64_t dim, int num_workers,
                  const ConsolidationRule& rule_proto,
                  const PsOptions& options);

  int64_t dim() const { return partitioner_.dim(); }
  int num_workers() const { return num_workers_; }
  int num_partitions() const { return partitioner_.num_partitions(); }
  const Partitioner& partitioner() const { return partitioner_; }
  const PsOptions& options() const { return options_; }
  Master* master() { return &master_; }

  /// Registry this PS records into (PsOptions::metrics, or the global
  /// one). Clients co-locate their pipeline metrics (push.inflight*)
  /// here so per-instance registries stay self-contained in tests.
  MetricsRegistry* metrics() const { return metrics_; }

  /// --- Whole-push/pull API (threaded runtime, tests) ---

  /// Splits `update` by partition, applies the client-side filter, and
  /// consolidates every piece; advances the clock table once.
  void Push(int worker, int clock, const SparseVector& update);

  /// Applies partition-local pieces of ONE logical push (worker, clock)
  /// — the facade Push, the columnar wire path (PsService) and the
  /// simulator (one call per arriving piece) all land here. A push from
  /// an evicted worker is dropped (ps.evicted_pushes_dropped counts it
  /// on the call that finishes the push). Empty pieces are skipped for
  /// rules that treat an empty push as a no-op. Pieces apply in order on
  /// the calling thread, each under its own shard mutex. When
  /// `finishes_push`, AdvanceClock fires once after the last piece, with
  /// no shard mutex held (L2 before L1, never nested). Pieces must already be partition-local
  /// (from partitioner().SplitByPartition or the columnar wire decoder).
  void PushPieces(int worker, int clock,
                  const std::vector<std::pair<int, SparseVector>>& pieces,
                  bool finishes_push);

  /// True if `worker` may begin `next_clock` under the sync policy.
  /// Always false for an evicted worker.
  bool CanAdvance(int worker, int next_clock) const;

  /// --- Worker liveness & eviction (the SSP liveness repair) ---

  /// Removes `worker` from the live membership: its clock-table entry
  /// stops pinning cmin (ClockTable::EvictWorker), subsequent pushes
  /// from it are dropped and counted (ps.evicted_pushes_dropped), and
  /// every thread blocked in WaitUntilCanAdvance is woken — survivors
  /// re-check the repaired cmin, the victim observes its own eviction.
  /// Returns true if the worker was live (false = no-op). Emits
  /// ps.worker_evicted, and ps.cmin_repairs when the eviction advanced
  /// cmin.
  bool EvictWorker(int worker);

  /// Re-adds an evicted worker as of `clock` finished clocks (must be
  /// >= cmin(); a rejoining worker pulls before resuming). Rejections —
  /// a rejoin behind cmin (which would move cmin backwards) or an
  /// already-live worker — return FailedPrecondition so the RPC layer
  /// can refuse client-controlled input without aborting the server.
  Status ReadmitWorker(int worker, int clock);

  bool IsWorkerLive(int worker) const;
  int num_live_workers() const;

  /// Blocks until CanAdvance holds (condition variable, woken by pushes)
  /// or `*cancel` becomes true (checked on every wake; pair with
  /// WakeClockWaiters()). Returns true if admitted, false if cancelled.
  /// The default nullptr never cancels — legacy callers block as before.
  bool WaitUntilCanAdvance(int worker, int next_clock,
                           const std::atomic<bool>* cancel = nullptr);

  /// Wakes every thread blocked in WaitUntilCanAdvance so it can re-check
  /// its cancel token. Used by prefetch teardown (PsClient dtor).
  void WakeClockWaiters();

  /// Version-aware pull of the whole model: BuildPartitionPull for every
  /// partition, at the master's stable version when partition_sync is on.
  ///
  /// `cached_tags[p]` is the content tag the client holds for partition p
  /// (kNoCachedTag if none; a short vector is padded with kNoCachedTag).
  /// All tags kNoCachedTag is the whole-model pull. Partitions are read
  /// in order on the calling thread. Returns the
  /// pieces, the cmin taken before the reads (Algorithm 1's pull returns
  /// both) and the wire accounting, which also feeds the pull.* counters.
  DeltaPullResult PullDelta(int worker,
                            const std::vector<int64_t>& cached_tags);

  /// The one partition read. Snapshots cmax (L1), then under the shard
  /// mutex mints the partition's content tag and answers `cached_tag`
  /// with nothing (kUnchanged), a patch of the current values at the
  /// keys written since it, or the whole block (dense or sparse, 50%
  /// rule) — whichever is smallest. `version >= 0` reads the snapshot at
  /// that stable version. Every read stamps pull state (a cache hit is
  /// still a read at cmax, Algorithm 2 line 18) and records
  /// ps.pull_piece_us and ps.pull.count. `plan` (may be null) receives
  /// the decision and its bytes.
  PartitionPull BuildPartitionPull(int partition, int worker, int64_t version,
                                   int64_t cached_tag,
                                   PiecePullPlan* plan = nullptr);

  /// The decision BuildPartitionPull would make for `cached_tag`, without
  /// emitting a payload or stamping pull state; a whole block is sized
  /// from the content the rule serves. The simulator calls this at grant
  /// time to size the per-partition message (and reads at link time), so
  /// it also folds the decision into the pull.* counters.
  PiecePullPlan PlanPullPiece(int partition, int worker, int64_t version,
                              int64_t cached_tag);

  /// Read-only global snapshot (no pull stamping) for evaluation.
  std::vector<double> Snapshot() const;

  /// --- Introspection ---

  int cmin() const;
  int cmax() const;

  /// Read access to one shard (introspection; do not mutate concurrently
  /// with pushes).
  const ServerShard& shard(int p) const {
    return *shards_.at(static_cast<size_t>(p));
  }
  int64_t StableVersion() const { return master_.StableVersion(); }
  int64_t TotalPushes() const;

  /// Memory accounting for Figure 13.
  size_t ParamMemoryBytes() const;
  size_t AuxMemoryBytes() const;

  /// Fills the PS-owned fields of a live-introspection snapshot
  /// (hetps.status.v1): clock table (per-worker clock/staleness/
  /// liveness, cmin/cmax) under L1 only, per-shard key counts and
  /// version stamps via monitoring-grade reads — no L2 shard mutex is
  /// ever taken, so a scrape can never stall the push hot path. The
  /// serving plane (PsService / trainer / simulator) decorates the
  /// remaining fields (heartbeat ages, push-window state, loans).
  void BuildStatusSnapshot(StatusSnapshot* snap) const;

  /// Checkpointing (Appendix D failure recovery); see ps/checkpoint.h for
  /// the file-level helpers. Both ends must use the same configuration.
  ///
  /// LoadCheckpoint is transactional: the whole checkpoint is parsed and
  /// staged into shadow state first and committed only if every section
  /// decoded cleanly. On any error the live PS is left exactly as it was
  /// (a truncated or corrupt file can never half-restore the server).
  Status SaveCheckpoint(std::ostream& os) const;
  Status LoadCheckpoint(std::istream& is);

  std::string DebugString() const;

  /// Tag introspection helpers (used by tests; tags are otherwise
  /// opaque).
  static bool TagIsVersioned(int64_t tag);
  static int64_t TagValue(int64_t tag);

 private:
  /// Pull responses summed for the pull.* counters.
  struct PullTally {
    int64_t hits = 0;
    int64_t shipped = 0;
    int64_t patches = 0;
    int64_t bytes = 0;
    int64_t bytes_full = 0;
    void Add(const PiecePullPlan& plan);
  };
  void CountPulls(const PullTally& tally);

  /// Applies one already-validated partition piece under its shard
  /// mutex, splitting the timing into ps.push_lock_wait_us (mutex
  /// acquisition) and ps.push_apply_us (consolidation kernel). Never
  /// touches the clock table.
  void ApplyPiece(int partition, int worker, int clock,
                  const SparseVector& local_piece);

  /// ## Content-tag encoding
  ///
  /// A tag names the byte content of one partition's materialized block:
  ///
  ///   bit 61      — versioned bit: 1 = stable-version snapshot tag
  ///                 (deferred DynSGD under partition_sync), 0 = live tag
  ///   bits 47..60 — pull epoch (mod 2^14), bumped on every checkpoint
  ///                 restore so restored state can never alias a tag
  ///                 handed out before the restore
  ///   bits 0..46  — value: the shard's data_version (live tags) or the
  ///                 master's stable version (versioned tags)
  ///
  /// Equal tags imply byte-identical content: data_version is a monotone
  /// per-shard push count (ServerShard), a stable version's snapshot is
  /// time-invariant (ConsolidationRule::SupportsVersionedSnapshots), and
  /// the epoch separates pre-/post-restore stamps. The sign bit stays 0,
  /// so every real tag is >= 0 and kNoCachedTag (-1) never collides.
  int64_t MakeTag(bool versioned, int64_t value) const;
  /// High (epoch + versioned) bits of `tag` match the current epoch and
  /// the expected versioned bit — i.e. TagValue() is comparable.
  bool TagInCurrentEpoch(int64_t tag, bool versioned) const;

  /// The pull decision, made with `shard`'s mutex held: mints the
  /// content tag (versioned for a stable-version read of a rule with
  /// versioned snapshots, live otherwise) and picks unchanged, patch or
  /// whole block, sized in both modes from the content the rule serves.
  /// With `out` it also stamps the read at `cmax` and fills the payload;
  /// without, `worker` and `cmax` are unused and nothing is stamped.
  PiecePullPlan DecidePullLocked(ServerShard* shard, int worker, int cmax,
                                 int64_t version, int64_t cached_tag,
                                 PartitionPull* out);

  /// Records `worker`'s push of `clock` in the clock table and wakes
  /// blocked SSP waiters when cmin advances. Takes L1 only; must be
  /// called with no shard mutex held. Also records the update's SSP
  /// staleness (clock - cmin) into worker.staleness{worker=m} — the one
  /// choke point every runtime (threaded, RPC, simulated) pushes
  /// through.
  void AdvanceClock(int worker, int clock);

  const int num_workers_;
  PsOptions options_;
  Partitioner partitioner_;
  Master master_;

  // Whether the consolidation rule treats empty pushes as no-ops (lets
  // PushPieces skip filter-emptied pieces). Immutable after construction.
  bool empty_push_is_noop_ = false;
  // Whether the rule's MaterializeAtVersion snapshots are genuine and
  // time-invariant at stable versions (deferred DynSGD). Gates the
  // versioned tag mode: rules that fall back to the live value would
  // otherwise produce false cache hits under a constant stable version.
  bool versioned_snapshots_ = false;

  // Pull-epoch for tag invalidation: bumped on every LoadCheckpoint
  // commit so tags handed out before a restore can never match tags
  // computed after it (restored shards restart their version stamps).
  std::atomic<uint32_t> pull_epoch_{0};

  // L1 — always acquired before any shard_mu_ (never after).
  mutable std::mutex clock_mu_;
  std::condition_variable clock_cv_;
  ClockTable clock_table_;

  // L2 — one mutex per shard; shards_[p] serves partition p. Multiple
  // shard mutexes are only ever held together in increasing index order.
  std::vector<std::unique_ptr<ServerShard>> shards_;
  mutable std::vector<std::unique_ptr<std::mutex>> shard_mu_;

  // Telemetry (owned by metrics_; pointers cached at construction so
  // the hot paths never look up by name). All recording is wait-free.
  MetricsRegistry* metrics_;
  Counter* push_counter_;
  // Push wire accounting (names fixed by the obs schema): pieces is the
  // number of partition-local payloads applied, bytes_shipped their
  // sparse wire cost. Counted on every PushPieces call.
  Counter* push_pieces_counter_;
  Counter* push_bytes_shipped_;
  Counter* pull_counter_;
  // Version-aware pull path accounting (names fixed by the obs schema):
  // cache_hit counts unchanged partitions, partitions_shipped counts
  // dense/sparse/delta payloads, bytes_saved = full-ship cost minus
  // bytes actually shipped.
  Counter* pull_cache_hit_;
  Counter* pull_partitions_shipped_;
  Counter* pull_bytes_shipped_;
  Counter* pull_bytes_saved_;
  Counter* pull_delta_hits_;
  Counter* worker_evicted_;
  Counter* worker_readmitted_;
  Counter* cmin_repairs_;
  Counter* evicted_pushes_dropped_;
  Gauge* blocked_workers_;
  HistogramMetric* admission_wait_us_;
  // Per-partition push timing, split so shard-lock contention shows
  // separately from consolidation kernel time.
  std::vector<HistogramMetric*> push_lock_wait_us_;  // per partition
  std::vector<HistogramMetric*> push_apply_us_;      // per partition
  std::vector<HistogramMetric*> pull_piece_us_;      // per partition
  std::vector<HistogramMetric*> staleness_;      // per worker
};

}  // namespace hetps

#endif  // HETPS_PS_PARAMETER_SERVER_H_
