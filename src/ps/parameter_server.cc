#include "ps/parameter_server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "math/kernels.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace hetps {
namespace {

using Clock = std::chrono::steady_clock;

/// Copies a partition-local block into a global dense buffer. Range-based
/// schemes are one memcpy at the partition's base key; hash striding falls
/// back to per-key address computation.
void ScatterBlock(const Partitioner& part, int p,
                  const std::vector<double>& block, double* out) {
  int64_t base = 0;
  if (part.ContiguousKeyRange(p, &base)) {
    std::memcpy(out + base, block.data(), block.size() * sizeof(double));
    return;
  }
  for (size_t local = 0; local < block.size(); ++local) {
    const int64_t g = part.GlobalIndex(p, static_cast<int64_t>(local));
    out[static_cast<size_t>(g)] = block[local];
  }
}

int64_t MicrosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - start)
      .count();
}

/// Wire-size estimate of `nnz` sparse entries: index + value each.
int64_t SparseBytes(size_t nnz) {
  return static_cast<int64_t>(nnz) *
         static_cast<int64_t>(sizeof(int64_t) + sizeof(double));
}

int64_t PieceBytes(const SparseVector& piece) {
  return SparseBytes(piece.nnz());
}

// Content-tag layout (see the MakeTag doc comment in the header):
// [0 | versioned:1 | epoch:14 | value:47], sign bit always clear.
constexpr int kTagValueBits = 47;
constexpr int64_t kTagValueMask = (int64_t{1} << kTagValueBits) - 1;
constexpr int64_t kTagVersionedBit = int64_t{1} << 61;
constexpr int64_t kTagEpochMask = (int64_t{1} << 14) - 1;

/// Content bytes of a whole block of `dim` keys with `nnz` nonzeros
/// under the 50% rule: sparse (16 B/nonzero) when less than half full,
/// dense (8 B/key) otherwise.
int64_t WholeBlockBytes(size_t dim, size_t nnz) {
  return std::min(static_cast<int64_t>(dim) *
                      static_cast<int64_t>(sizeof(double)),
                  SparseBytes(nnz));
}

}  // namespace

Status ApplyPartitionPull(const Partitioner& layout, const PartitionPull& piece,
                          std::vector<double>* replica,
                          std::vector<int64_t>* tags, bool* tag_mismatch) {
  HETPS_CHECK(static_cast<int64_t>(replica->size()) == layout.dim() &&
              static_cast<int>(tags->size()) == layout.num_partitions())
      << "replica or tags do not match the layout";
  const int p = piece.partition;
  if (p < 0 || p >= layout.num_partitions()) {
    return Status::InvalidArgument("piece partition id out of range");
  }
  const size_t slot = static_cast<size_t>(p);
  const int64_t dim_p = layout.PartitionDim(p);
  switch (piece.encoding) {
    case PartitionPull::Encoding::kUnchanged:
      // Content tag matched: the replica is already current.
      break;
    case PartitionPull::Encoding::kDense:
      if (piece.dense.size() != static_cast<size_t>(dim_p)) {
        return Status::InvalidArgument("dense piece has wrong length");
      }
      ScatterBlock(layout, p, piece.dense, replica->data());
      break;
    case PartitionPull::Encoding::kSparse:
    case PartitionPull::Encoding::kSparsePatch: {
      const bool patch =
          piece.encoding == PartitionPull::Encoding::kSparsePatch;
      if (piece.sparse.MinimumDimension() > dim_p) {
        return Status::InvalidArgument(patch
                                           ? "patch piece index out of range"
                                           : "sparse piece index out of range");
      }
      if (patch && piece.base_tag != (*tags)[slot]) {
        // A patch on state we no longer (or never) held: drop it and
        // re-pull this partition whole on the caller's retry.
        *tag_mismatch = true;
        (*tags)[slot] = kNoCachedTag;
        return Status::OK();
      }
      // A whole block in sparse layout clears the partition's slots
      // first; a patch overwrites only its keys with current values.
      // Range-based schemes address the block at its base key; hash
      // striding goes through GlobalIndex per key.
      const int64_t* idx = piece.sparse.indices().data();
      const double* val = piece.sparse.values().data();
      double* out = replica->data();
      int64_t base = 0;
      if (layout.ContiguousKeyRange(p, &base)) {
        double* block = out + base;
        if (!patch) std::fill(block, block + dim_p, 0.0);
        for (size_t i = 0; i < piece.sparse.nnz(); ++i) block[idx[i]] = val[i];
      } else {
        if (!patch) {
          for (int64_t local = 0; local < dim_p; ++local) {
            out[layout.GlobalIndex(p, local)] = 0.0;
          }
        }
        for (size_t i = 0; i < piece.sparse.nnz(); ++i) {
          out[layout.GlobalIndex(p, idx[i])] = val[i];
        }
      }
      break;
    }
  }
  (*tags)[slot] = piece.tag;
  return Status::OK();
}

bool ParameterServer::TagIsVersioned(int64_t tag) {
  return tag >= 0 && (tag & kTagVersionedBit) != 0;
}

int64_t ParameterServer::TagValue(int64_t tag) {
  return tag & kTagValueMask;
}

int64_t ParameterServer::MakeTag(bool versioned, int64_t value) const {
  const int64_t epoch =
      static_cast<int64_t>(pull_epoch_.load(std::memory_order_acquire)) &
      kTagEpochMask;
  return (versioned ? kTagVersionedBit : int64_t{0}) |
         (epoch << kTagValueBits) | (value & kTagValueMask);
}

bool ParameterServer::TagInCurrentEpoch(int64_t tag, bool versioned) const {
  if (tag < 0) return false;
  return (tag & ~kTagValueMask) == (MakeTag(versioned, 0) & ~kTagValueMask);
}

ParameterServer::ParameterServer(int64_t dim, int num_workers,
                                 const ConsolidationRule& rule_proto,
                                 const PsOptions& options)
    : num_workers_(num_workers),
      options_(options),
      partitioner_(Partitioner::Create(options.scheme, dim,
                                       options.num_servers,
                                       options.partitions_per_server)),
      master_(partitioner_.num_partitions(), num_workers),
      empty_push_is_noop_(rule_proto.EmptyPushIsNoOp()),
      versioned_snapshots_(rule_proto.SupportsVersionedSnapshots()),
      clock_table_(num_workers) {
  HETPS_CHECK(num_workers > 0) << "need at least one worker";
  const int parts = partitioner_.num_partitions();
  shards_.reserve(static_cast<size_t>(parts));
  shard_mu_.reserve(static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    shards_.push_back(std::make_unique<ServerShard>(
        p, static_cast<size_t>(partitioner_.PartitionDim(p)), rule_proto,
        num_workers, options_.delta_log_depth));
    shard_mu_.push_back(std::make_unique<std::mutex>());
  }
  // Create every metric up front: hot paths record through cached
  // pointers and never touch the registry again.
  metrics_ = options.metrics != nullptr ? options.metrics : &GlobalMetrics();
  push_counter_ = metrics_->counter("ps.push.count");
  push_pieces_counter_ = metrics_->counter("push.pieces");
  push_bytes_shipped_ = metrics_->counter("push.bytes_shipped");
  pull_counter_ = metrics_->counter("ps.pull.count");
  pull_cache_hit_ = metrics_->counter("pull.cache_hit");
  pull_partitions_shipped_ = metrics_->counter("pull.partitions_shipped");
  pull_bytes_shipped_ = metrics_->counter("pull.bytes_shipped");
  pull_bytes_saved_ = metrics_->counter("pull.bytes_saved");
  pull_delta_hits_ = metrics_->counter("pull.delta_hits");
  worker_evicted_ = metrics_->counter("ps.worker_evicted");
  worker_readmitted_ = metrics_->counter("ps.worker_readmitted");
  cmin_repairs_ = metrics_->counter("ps.cmin_repairs");
  evicted_pushes_dropped_ = metrics_->counter("ps.evicted_pushes_dropped");
  blocked_workers_ = metrics_->gauge("ps.blocked_workers");
  blocked_workers_->Set(0.0);
  admission_wait_us_ = metrics_->histogram("ps.admission_wait_us");
  push_lock_wait_us_.reserve(static_cast<size_t>(parts));
  push_apply_us_.reserve(static_cast<size_t>(parts));
  pull_piece_us_.reserve(static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    const MetricLabels labels = {{"partition", std::to_string(p)}};
    push_lock_wait_us_.push_back(
        metrics_->histogram("ps.push_lock_wait_us", labels));
    push_apply_us_.push_back(
        metrics_->histogram("ps.push_apply_us", labels));
    pull_piece_us_.push_back(
        metrics_->histogram("ps.pull_piece_us", labels));
  }
  staleness_.reserve(static_cast<size_t>(num_workers));
  for (int m = 0; m < num_workers; ++m) {
    staleness_.push_back(metrics_->histogram(
        "worker.staleness", {{"worker", std::to_string(m)}}));
  }
}

void ParameterServer::Push(int worker, int clock,
                           const SparseVector& update) {
  HETPS_TRACE_SPAN2("ps.push", "worker", worker, "nnz", update.nnz());
  const SparseVector filtered =
      options_.update_filter_epsilon > 0.0
          ? update.Filtered(options_.update_filter_epsilon)
          : update;
  std::vector<SparseVector> split = partitioner_.SplitByPartition(filtered);
  std::vector<std::pair<int, SparseVector>> pieces;
  pieces.reserve(split.size());
  for (size_t p = 0; p < split.size(); ++p) {
    pieces.emplace_back(static_cast<int>(p), std::move(split[p]));
  }
  PushPieces(worker, clock, pieces, /*finishes_push=*/true);
}

void ParameterServer::PushPieces(
    int worker, int clock,
    const std::vector<std::pair<int, SparseVector>>& pieces,
    bool finishes_push) {
  // Membership guard: a push that raced its sender's eviction must not
  // touch shard state — the worker's data shard has already been handed
  // to the survivors, so its gradient would double-count that data.
  // Counted once per logical push, on the call that finishes it.
  if (!IsWorkerLive(worker)) {
    if (finishes_push) evicted_pushes_dropped_->Increment();
    return;
  }
  // For no-op-on-empty rules (SSP/Con accumulate), empty pieces carry no
  // information; consolidating them would bump the shard's data_version
  // (making a clean partition look dirty to the pull cache), inflate
  // push_count and take the shard lock for nothing — common when
  // update_filter_epsilon empties a partition's slice. Version-tracking
  // rules (DynSGD) still receive every piece: an empty piece is their
  // "worker finished this clock here" completion marker (§6). Either way
  // the clock advances once per logical push.
  int64_t applied = 0;
  int64_t shipped = 0;
  for (const auto& pr : pieces) {
    if (pr.second.empty() && empty_push_is_noop_) continue;
    ApplyPiece(pr.first, worker, clock, pr.second);
    ++applied;
    shipped += PieceBytes(pr.second);
  }
  push_pieces_counter_->Increment(applied);
  push_bytes_shipped_->Increment(shipped);
  // Lock order: every shard mutex (L2) is released before AdvanceClock
  // takes clock_mu_ (L1); the two are never nested.
  if (finishes_push) AdvanceClock(worker, clock);
}

void ParameterServer::ApplyPiece(int partition, int worker, int clock,
                                 const SparseVector& local_piece) {
  const Clock::time_point start = Clock::now();
  Clock::time_point locked;
  {
    std::lock_guard<std::mutex> lock(
        *shard_mu_[static_cast<size_t>(partition)]);
    locked = Clock::now();
    ServerShard* shard = shards_[static_cast<size_t>(partition)].get();
    shard->Push(worker, clock, local_piece);
    master_.ReportVersion(partition, shard->CompletedVersionCount());
  }
  push_lock_wait_us_[static_cast<size_t>(partition)]->RecordInt(
      std::chrono::duration_cast<std::chrono::microseconds>(locked - start)
          .count());
  push_apply_us_[static_cast<size_t>(partition)]->RecordInt(
      MicrosSince(locked));
}

void ParameterServer::AdvanceClock(int worker, int clock) {
  bool advanced = false;
  int cmin_after = 0;
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    advanced = clock_table_.OnPush(worker, clock);
    cmin_after = clock_table_.cmin();
  }
  if (advanced) {
    clock_cv_.notify_all();
    // One event per (worker, clock) actually advanced — the flight
    // record's progress spine a postmortem reads eviction order against.
    FlightRecorder::Global().Record("clock_advance", worker, clock,
                                    static_cast<double>(cmin_after));
  }
  push_counter_->Increment();
  // SSP staleness of this update relative to the slowest worker.
  // Recorded here (not in the callers) so threaded, RPC and simulated
  // runtimes all feed the same worker.staleness{worker=m} histogram.
  const int staleness = clock - cmin_after;
  staleness_[static_cast<size_t>(worker)]->RecordInt(
      staleness > 0 ? staleness : 0);
}

bool ParameterServer::CanAdvance(int worker, int next_clock) const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  if (!clock_table_.is_live(worker)) return false;
  return options_.sync.CanAdvance(next_clock, clock_table_.cmin());
}

bool ParameterServer::EvictWorker(int worker) {
  HETPS_CHECK(worker >= 0 && worker < num_workers_)
      << "worker id out of range";
  bool evicted = false;
  bool repaired = false;
  int cmin_after = 0;
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    if (!clock_table_.is_live(worker)) return false;
    repaired = clock_table_.EvictWorker(worker);
    // EvictWorker refuses the last live worker; re-check membership to
    // tell a refusal apart from "evicted but cmin unchanged".
    evicted = !clock_table_.is_live(worker);
    cmin_after = clock_table_.cmin();
  }
  if (!evicted) return false;
  // Wake *everyone*: survivors re-check against the repaired cmin, the
  // victim's own WaitUntilCanAdvance observes its eviction and returns
  // false instead of blocking forever.
  clock_cv_.notify_all();
  master_.MarkWorkerDead(worker);
  worker_evicted_->Increment();
  if (repaired) cmin_repairs_->Increment();
  HETPS_TRACE_INSTANT1("ps.worker_evicted", "worker", worker);
  FlightRecorder::Global().Record("worker_evicted", worker, cmin_after,
                                  repaired ? 1.0 : 0.0);
  if (repaired) {
    FlightRecorder::Global().Record("cmin_repair", worker, cmin_after);
  }
  // Black-box semantics: an eviction is exactly the moment a postmortem
  // needs the ring on disk, not at (a possibly never-reached) end of run.
  FlightRecorder::Global().DumpNow("worker_evicted");
  HETPS_LOG(Info) << "ParameterServer: evicted worker " << worker
                  << (repaired ? " (cmin repaired)" : "");
  return true;
}

Status ParameterServer::ReadmitWorker(int worker, int clock) {
  HETPS_CHECK(worker >= 0 && worker < num_workers_)
      << "worker id out of range";
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    switch (clock_table_.ReadmitWorker(worker, clock)) {
      case ClockTable::ReadmitResult::kAlreadyLive:
        return Status::FailedPrecondition(
            "worker " + std::to_string(worker) + " is already live");
      case ClockTable::ReadmitResult::kBehindCmin:
        return Status::FailedPrecondition(
            "readmission clock " + std::to_string(clock) +
            " is behind cmin " + std::to_string(clock_table_.cmin()));
      case ClockTable::ReadmitResult::kReadmitted:
        break;
    }
  }
  // Rebase the rejoiner's version stamp on every shard. Without this a
  // worker readmitted below its pre-eviction clock leaves a stale-high
  // V(m) behind; the all-worker version minimum then folds the very
  // version the rejoiner's next push is stamped with, and that push
  // aborts the server (DynSGD's evicted-version check).
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    shards_[static_cast<size_t>(p)]->OnWorkerReadmitted(worker, clock);
  }
  // MarkWorkerLive also resets the worker's clock-time slot: a rejoiner
  // must not be judged a straggler (or the fastest) on stale timing.
  master_.MarkWorkerLive(worker);
  worker_readmitted_->Increment();
  HETPS_TRACE_INSTANT1("ps.worker_readmitted", "worker", worker);
  FlightRecorder::Global().Record("worker_readmitted", worker, clock);
  return Status::OK();
}

bool ParameterServer::IsWorkerLive(int worker) const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  return clock_table_.is_live(worker);
}

int ParameterServer::num_live_workers() const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  return clock_table_.num_live();
}

bool ParameterServer::WaitUntilCanAdvance(int worker, int next_clock,
                                          const std::atomic<bool>* cancel) {
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_acquire);
  };
  {
    // Fast path: no wait, no telemetry churn. An evicted worker is never
    // admitted — it must not re-enter the training loop.
    std::unique_lock<std::mutex> lock(clock_mu_);
    if (!clock_table_.is_live(worker)) return false;
    if (options_.sync.CanAdvance(next_clock, clock_table_.cmin())) {
      admission_wait_us_->RecordInt(0);
      return true;
    }
    if (cancelled()) return false;
  }
  HETPS_TRACE_SPAN2("ps.wait", "worker", worker, "clock", next_clock);
  const Clock::time_point start = Clock::now();
  blocked_workers_->Add(1.0);
  bool admitted = false;
  {
    std::unique_lock<std::mutex> lock(clock_mu_);
    // Own-eviction is a wake condition: EvictWorker notify_all()s, and the
    // victim must fall out of the wait rather than sleep on a cmin that
    // will never admit it.
    clock_cv_.wait(lock, [&] {
      return !clock_table_.is_live(worker) ||
             options_.sync.CanAdvance(next_clock, clock_table_.cmin()) ||
             cancelled();
    });
    admitted = clock_table_.is_live(worker) &&
               options_.sync.CanAdvance(next_clock, clock_table_.cmin());
  }
  blocked_workers_->Add(-1.0);
  admission_wait_us_->RecordInt(MicrosSince(start));
  return admitted;
}

void ParameterServer::WakeClockWaiters() {
  // Taking clock_mu_ before notifying closes the gap between a waiter's
  // predicate check and its wait: a cancel flag set just before this
  // call is guaranteed visible to every waiter that subsequently wakes.
  { std::lock_guard<std::mutex> lock(clock_mu_); }
  clock_cv_.notify_all();
}

void ParameterServer::PullTally::Add(const PiecePullPlan& plan) {
  if (!plan.changed) {
    ++hits;
  } else {
    ++shipped;
    if (plan.patch) ++patches;
  }
  bytes += plan.bytes;
  bytes_full += plan.bytes_full;
}

void ParameterServer::CountPulls(const PullTally& tally) {
  pull_cache_hit_->Increment(tally.hits);
  pull_partitions_shipped_->Increment(tally.shipped);
  pull_bytes_shipped_->Increment(tally.bytes);
  pull_delta_hits_->Increment(tally.patches);
  const int64_t saved = tally.bytes_full - tally.bytes;
  if (saved > 0) pull_bytes_saved_->Increment(saved);
}

PiecePullPlan ParameterServer::DecidePullLocked(ServerShard* shard,
                                                int worker, int cmax,
                                                int64_t version,
                                                int64_t cached_tag,
                                                PartitionPull* out) {
  const bool versioned =
      options_.partition_sync && versioned_snapshots_ && version >= 0;
  PiecePullPlan plan;
  plan.tag = versioned ? MakeTag(true, version)
                       : MakeTag(false, shard->data_version());
  // bytes_full is sized from the content the rule serves, in plan and
  // read mode alike. A rule that serves w as it stands is read from a
  // dense w in place; a rule with state of its own (deferred DynSGD) has
  // its block materialized here. This one count also picks the
  // whole-block layout and sizes the emit. A served block counts
  // x != 0.0 (NaN included); the sparse layout and bytes_full count
  // |x| > 0 (`kept`, NaN excluded). A sparse-stored w is counted as it
  // stands and densified only when read.
  const ParamBlock& w = shard->param();
  const ConsolidationRule& rule = shard->rule();
  std::vector<double> block;
  const double* values = w.dense_data();
  if (!rule.MaterializesParamBlock()) {
    block = version >= 0 ? rule.MaterializeAtVersion(w, version)
                         : rule.Materialize(w);
    values = block.data();
  }
  size_t nonzero = 0;
  size_t kept = 0;
  if (values != nullptr) {
    nonzero = kernels::CountNonZero(values, w.dim(), &kept);
    plan.bytes_full = WholeBlockBytes(w.dim(), kept);
  } else {
    plan.bytes_full = WholeBlockBytes(w.dim(), w.CountNonZero());
  }
  if (out != nullptr) {
    // Every read is a read at cmax for the rule's bookkeeping, a cache
    // hit included (Algorithm 2 line 18). Stamping changes no content.
    shard->StampPull(worker, cmax);
    out->tag = plan.tag;
  }
  if (cached_tag == plan.tag) {
    // Cache hit: the client's copy is byte-identical.
    plan.changed = false;
    if (out != nullptr) out->encoding = PartitionPull::Encoding::kUnchanged;
    return plan;
  }
  // Try the patch first (live-tag mode only; versioned snapshots change
  // wholesale at stable-version boundaries). It carries the current
  // values at the keys written since the cached tag — gathered under the
  // caller's shard lock, so they match plan.tag exactly. Delta logs
  // exist only for support-local rules, whose materialized block is the
  // parameter block itself. A patch of k keys wins iff SparseBytes(k) <
  // bytes_full, so the union is given up at ceil(bytes_full / 16) keys.
  const size_t key_limit = static_cast<size_t>(
      (plan.bytes_full + SparseBytes(1) - 1) / SparseBytes(1));
  std::vector<int64_t> keys;
  if (!versioned && TagInCurrentEpoch(cached_tag, /*versioned=*/false) &&
      shard->DeltaSince(TagValue(cached_tag), key_limit, &keys)) {
    plan.patch = true;
    plan.bytes = SparseBytes(keys.size());
    if (out != nullptr) {
      std::vector<double> patch(keys.size());
      w.Gather(keys.data(), keys.size(), patch.data());
      out->encoding = PartitionPull::Encoding::kSparsePatch;
      out->base_tag = cached_tag;
      out->sparse = SparseVector(std::move(keys), std::move(patch));
    }
    return plan;
  }
  plan.bytes = plan.bytes_full;
  if (out == nullptr) return plan;
  // Whole-block ship in whichever layout is smaller (ParamBlock's 50%
  // rule applied to the served content): the kept entries straight into
  // exact-size sparse arrays, or one dense copy.
  if (values == nullptr) {
    block = w.ToDense();
    values = block.data();
    nonzero = kernels::CountNonZero(values, w.dim(), &kept);
  }
  plan.bytes = WholeBlockBytes(w.dim(), nonzero);
  if (plan.bytes < static_cast<int64_t>(w.dim() * sizeof(double))) {
    out->encoding = PartitionPull::Encoding::kSparse;
    out->sparse = SparseVector::FromDense(values, w.dim(), kept);
  } else {
    out->encoding = PartitionPull::Encoding::kDense;
    if (block.empty()) {  // served in place from w
      out->dense.assign(values, values + w.dim());
    } else {
      out->dense = std::move(block);
    }
  }
  return plan;
}

PartitionPull ParameterServer::BuildPartitionPull(int partition, int worker,
                                                  int64_t version,
                                                  int64_t cached_tag,
                                                  PiecePullPlan* plan) {
  HETPS_CHECK(partition >= 0 && partition < num_partitions())
      << "partition id out of range";
  // Lock order (L1 before L2): snapshot cmax under clock_mu_ *before*
  // taking the shard mutex. Taking clock_mu_ inside the shard critical
  // section inverted the SaveCheckpoint order (clock -> shard) and was a
  // real ABBA deadlock under concurrent pull + checkpoint; regression
  // test: PsConcurrencyTest.PullsRaceCheckpointsWithoutDeadlock.
  const Clock::time_point start = Clock::now();
  const int cmax_now = cmax();
  PartitionPull out;
  out.partition = partition;
  PiecePullPlan decided;
  {
    std::lock_guard<std::mutex> lock(
        *shard_mu_[static_cast<size_t>(partition)]);
    decided = DecidePullLocked(shards_[static_cast<size_t>(partition)].get(),
                               worker, cmax_now, version, cached_tag, &out);
  }
  pull_piece_us_[static_cast<size_t>(partition)]->RecordInt(
      MicrosSince(start));
  pull_counter_->Increment();
  if (plan != nullptr) *plan = decided;
  return out;
}

PiecePullPlan ParameterServer::PlanPullPiece(int partition, int worker,
                                             int64_t version,
                                             int64_t cached_tag) {
  HETPS_CHECK(partition >= 0 && partition < num_partitions())
      << "partition id out of range";
  PiecePullPlan plan;
  {
    std::lock_guard<std::mutex> lock(
        *shard_mu_[static_cast<size_t>(partition)]);
    plan = DecidePullLocked(shards_[static_cast<size_t>(partition)].get(),
                            worker, /*cmax=*/0, version, cached_tag,
                            /*out=*/nullptr);
  }
  PullTally tally;
  tally.Add(plan);
  CountPulls(tally);
  return plan;
}

DeltaPullResult ParameterServer::PullDelta(
    int worker, const std::vector<int64_t>& cached_tags) {
  HETPS_TRACE_SPAN1("ps.pull_delta", "worker", worker);
  const int parts = partitioner_.num_partitions();
  const int64_t version =
      options_.partition_sync ? master_.StableVersion() : -1;
  DeltaPullResult result;
  result.cmin = cmin();
  result.partitions.resize(static_cast<size_t>(parts));
  PullTally tally;
  for (int p = 0; p < parts; ++p) {
    const size_t slot = static_cast<size_t>(p);
    const int64_t cached =
        slot < cached_tags.size() ? cached_tags[slot] : kNoCachedTag;
    PiecePullPlan plan;
    result.partitions[slot] =
        BuildPartitionPull(p, worker, version, cached, &plan);
    tally.Add(plan);
  }
  result.bytes_shipped = tally.bytes;
  result.bytes_full = tally.bytes_full;
  CountPulls(tally);
  return result;
}

std::vector<double> ParameterServer::Snapshot() const {
  std::vector<double> out(static_cast<size_t>(partitioner_.dim()), 0.0);
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    const std::vector<double> block =
        shards_[static_cast<size_t>(p)]->Peek();
    ScatterBlock(partitioner_, p, block, out.data());
  }
  return out;
}

int ParameterServer::cmin() const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  return clock_table_.cmin();
}

int ParameterServer::cmax() const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  return clock_table_.cmax();
}

int64_t ParameterServer::TotalPushes() const {
  int64_t total = 0;
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    total += shards_[static_cast<size_t>(p)]->push_count();
  }
  return total;
}

size_t ParameterServer::ParamMemoryBytes() const {
  size_t total = 0;
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    total += shards_[static_cast<size_t>(p)]->ParamMemoryBytes();
  }
  return total;
}

size_t ParameterServer::AuxMemoryBytes() const {
  size_t total = 0;
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    total += shards_[static_cast<size_t>(p)]->AuxMemoryBytes();
  }
  return total;
}

void ParameterServer::BuildStatusSnapshot(StatusSnapshot* snap) const {
  // Clock-plane fields under L1 in one critical section, so the
  // per-worker clocks, cmin, and cmax in a snapshot are mutually
  // consistent (cmin <= every live clock <= cmax holds by the
  // ClockTable invariant).
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    snap->cmin = clock_table_.cmin();
    snap->cmax = clock_table_.cmax();
    snap->num_workers = num_workers_;
    snap->num_live_workers = clock_table_.num_live();
    snap->workers.clear();
    snap->workers.reserve(static_cast<size_t>(num_workers_));
    for (int m = 0; m < num_workers_; ++m) {
      WorkerStatus w;
      w.worker = m;
      w.clock = clock_table_.clock(m);
      w.staleness = w.clock - snap->cmin;
      w.live = clock_table_.is_live(m);
      snap->workers.push_back(w);
    }
  }
  snap->blocked_workers =
      blocked_workers_->has_value() ? blocked_workers_->value() : 0.0;
  // Shard fields deliberately skip the L2 mutexes: a scrape must never
  // queue behind (or ahead of) a push apply. The serving planes
  // (PsService loop, simulator) are serialized with pushes anyway;
  // other callers get monitoring-grade possibly-stale stamps.
  snap->shards.clear();
  snap->shards.reserve(static_cast<size_t>(partitioner_.num_partitions()));
  int64_t total_pushes = 0;
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    const ServerShard& s = *shards_[static_cast<size_t>(p)];
    ShardStatus st;
    st.partition = p;
    st.keys = partitioner_.PartitionDim(p);
    st.data_version = s.data_version();
    st.push_count = s.push_count();
    st.param_bytes = static_cast<int64_t>(s.ParamMemoryBytes());
    total_pushes += st.push_count;
    snap->shards.push_back(st);
  }
  snap->total_pushes = total_pushes;
}

Status ParameterServer::SaveCheckpoint(std::ostream& os) const {
  // Lock order: clock_mu_ (L1) first, then each shard mutex (L2) in
  // increasing partition index — the documented discipline. Holding L1
  // across the whole write keeps the clock section consistent with the
  // shard sections (pushes block on their final clock advance until the
  // checkpoint finishes).
  std::lock_guard<std::mutex> clock_lock(clock_mu_);
  os << "hetps-checkpoint v1\n";
  os << std::setprecision(17);
  os << dim() << ' ' << num_workers_ << ' '
     << partitioner_.num_partitions() << '\n';
  os << "clocks";
  for (int c : clock_table_.clocks()) os << ' ' << c;
  os << '\n';
  os << "master";
  for (int64_t v : master_.VersionSnapshot()) os << ' ' << v;
  os << '\n';
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    const ServerShard& shard = *shards_[static_cast<size_t>(p)];
    const SparseVector sv = shard.param().ToSparse();
    os << "shard " << p << ' '
       << (shard.param().is_sparse() ? 1 : 0) << ' '
       << shard.push_count() << ' ' << sv.nnz() << '\n';
    for (size_t i = 0; i < sv.nnz(); ++i) {
      os << sv.index(i) << ' ' << sv.value(i) << ' ';
    }
    os << '\n';
    HETPS_RETURN_NOT_OK(shard.rule().SaveState(os));
  }
  return os ? Status::OK() : Status::IOError("checkpoint write failed");
}

Status ParameterServer::LoadCheckpoint(std::istream& is) {
  std::string header;
  std::getline(is, header);
  if (header != "hetps-checkpoint v1") {
    return Status::IOError("bad checkpoint header: " + header);
  }
  int64_t saved_dim = 0;
  int saved_workers = 0;
  int saved_partitions = 0;
  if (!(is >> saved_dim >> saved_workers >> saved_partitions)) {
    return Status::IOError("truncated checkpoint (shape)");
  }
  if (saved_dim != dim() || saved_workers != num_workers_ ||
      saved_partitions != partitioner_.num_partitions()) {
    return Status::InvalidArgument(
        "checkpoint shape does not match this ParameterServer");
  }
  std::string tag;
  if (!(is >> tag) || tag != "clocks") {
    return Status::IOError("missing clocks section");
  }
  std::vector<int> clocks(static_cast<size_t>(num_workers_));
  for (auto& c : clocks) {
    if (!(is >> c)) return Status::IOError("truncated clocks");
  }
  if (!(is >> tag) || tag != "master") {
    return Status::IOError("missing master section");
  }
  std::vector<int64_t> versions(
      static_cast<size_t>(partitioner_.num_partitions()));
  for (auto& v : versions) {
    if (!(is >> v)) return Status::IOError("truncated master versions");
  }
  // --- Stage ------------------------------------------------------------
  // Decode every shard section into shadow ServerShards before touching
  // any live state. A truncated or corrupt checkpoint therefore fails
  // cleanly with the PS exactly as it was — never clocks-restored but
  // shards-half-loaded.
  const int parts = partitioner_.num_partitions();
  std::vector<std::unique_ptr<ServerShard>> staged;
  staged.reserve(static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    // Clone the live shard's rule as the prototype for the staged shard
    // (LoadState below fully overwrites the cloned state). The brief L2
    // lock makes the clone race-free against concurrent pushes.
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    staged.push_back(std::make_unique<ServerShard>(
        p, static_cast<size_t>(partitioner_.PartitionDim(p)),
        shards_[static_cast<size_t>(p)]->rule(), num_workers_,
        options_.delta_log_depth));
  }
  for (int p = 0; p < parts; ++p) {
    int shard_id = 0;
    int sparse_layout = 0;
    int64_t push_count = 0;
    size_t nnz = 0;
    if (!(is >> tag >> shard_id >> sparse_layout >> push_count >> nnz) ||
        tag != "shard" || shard_id != p) {
      return Status::IOError("bad shard header for partition " +
                             std::to_string(p));
    }
    ServerShard* shard = staged[static_cast<size_t>(p)].get();
    ParamBlock* param = shard->mutable_param();
    param->ForceLayout(ParamBlock::Layout::kDense);
    param->Clear();
    SparseVector sv;
    const Status entries = ReadCheckpointEntries(is, nnz, param->dim(), &sv);
    if (!entries.ok()) {
      return Status::IOError("shard " + std::to_string(p) + ": " +
                             entries.message());
    }
    param->Add(sv);
    if (sparse_layout != 0) {
      param->ForceLayout(ParamBlock::Layout::kSparse);
    }
    shard->set_push_count(push_count);
    // data_version tracks pushes 1:1 (ServerShard::Push), so the restored
    // stamp is the restored push count. The epoch bump at commit below
    // keeps it from aliasing any pre-restore client tag regardless.
    shard->set_data_version(push_count);
    HETPS_RETURN_NOT_OK(shard->mutable_rule()->LoadState(is));
  }
  // --- Commit -----------------------------------------------------------
  // Everything decoded. Swap the staged state in under the documented
  // lock order: clock_mu_ (L1) first, then shard mutexes (L2) in
  // increasing index. Holding L1 across the swap blocks every clock
  // reader/advancer and every partition read (which reads cmax
  // first), so the restored clock table becomes visible together with
  // the restored shards on all pull paths.
  {
    std::lock_guard<std::mutex> clock_lock(clock_mu_);
    // Hold *all* shard mutexes (increasing index — the documented L2
    // order) across the epoch bump and the swap. Any concurrent pull
    // computes its content tag under some shard mutex, so it observes
    // either (old epoch, old shard) or (new epoch, new shard) for each
    // partition — never a new-epoch tag naming pre-restore content.
    std::vector<std::unique_lock<std::mutex>> shard_locks;
    shard_locks.reserve(static_cast<size_t>(parts));
    for (int p = 0; p < parts; ++p) {
      shard_locks.emplace_back(*shard_mu_[static_cast<size_t>(p)]);
    }
    pull_epoch_.fetch_add(1, std::memory_order_acq_rel);
    clock_table_.Restore(clocks);
    master_.RestoreVersions(versions);
    for (int p = 0; p < parts; ++p) {
      shards_[static_cast<size_t>(p)] =
          std::move(staged[static_cast<size_t>(p)]);
    }
  }
  clock_cv_.notify_all();
  return Status::OK();
}

std::string ParameterServer::DebugString() const {
  std::ostringstream os;
  os << "ParameterServer(dim=" << dim() << ", workers=" << num_workers_
     << ", " << partitioner_.DebugString() << ", sync="
     << options_.sync.DebugString()
     << ", partition_sync=" << (options_.partition_sync ? "on" : "off")
     << ")";
  return os.str();
}

}  // namespace hetps
