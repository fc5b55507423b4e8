#ifndef HETPS_PS_SERVER_SHARD_H_
#define HETPS_PS_SERVER_SHARD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/consolidation.h"
#include "core/param_block.h"
#include "math/sparse_vector.h"

namespace hetps {

/// One partition's server-side state: the parameter block plus a private
/// clone of the consolidation rule. Pure logic — serialization of calls is
/// the caller's job (the facade locks per shard; the simulator is
/// single-threaded).
///
/// ## Version stamps & the delta log (version-aware pull path, §6)
///
/// Every push bumps a monotone `data_version()` stamp. The materialized
/// content of a shard is a pure function of the pushes applied, so two
/// reads at the same data version are guaranteed byte-identical — that is
/// what lets a client cache a partition replica keyed by version and skip
/// re-fetching unchanged partitions.
///
/// For accumulate rules (rule().PushTouchesOnlyUpdateSupport()), the shard
/// additionally keeps a bounded log of the key set each push touched.
/// DeltaSince() unions the log into the keys changed in
/// (from_version, data_version], so a pull can ship the *current* values
/// at just those keys instead of the whole block when that is smaller.
/// The union is built in a per-shard bitmap, so DeltaSince — like every
/// other call — must run under the caller's serialization.
class ServerShard {
 public:
  /// `rule_proto` is cloned; `dim` is the partition-local dimension.
  /// `delta_log_depth` bounds the per-shard delta log (0 disables delta
  /// capture entirely — pulls then always ship whole blocks).
  ServerShard(int shard_id, size_t dim, const ConsolidationRule& rule_proto,
              int num_workers, int delta_log_depth = 64);

  int shard_id() const { return shard_id_; }
  size_t dim() const { return param_.dim(); }

  /// Consolidates a partition-local update from `worker` at `clock`.
  /// Bumps data_version() and (for accumulate rules) appends the
  /// update's key set to the log.
  void Push(int worker, int clock, const SparseVector& local_update);

  /// Dense snapshot of this partition, stamping the rule's pull state for
  /// `worker` (`cmax` = fastest worker's clock, for Algorithm 2).
  std::vector<double> Pull(int worker, int cmax);

  /// Snapshot at `version` (deferred DynSGD only; other rules return the
  /// live value). Stamps pull state like Pull().
  std::vector<double> PullAtVersion(int worker, int cmax, int64_t version);

  /// Stamps the rule's pull state without materializing — the cheap half
  /// of a cache-hit pull (the client keeps its replica; the server must
  /// still record that the worker read at cmax, Algorithm 2 line 18).
  void StampPull(int worker, int cmax) { rule_->OnPull(worker, cmax); }

  /// Forwards a liveness-plane readmission so version-tracking rules can
  /// rebase the rejoiner's V(m) onto its readmission clock.
  void OnWorkerReadmitted(int worker, int clock) {
    rule_->OnWorkerReadmitted(worker, clock);
  }

  /// Read-only snapshot without stamping pull state (evaluation path).
  std::vector<double> Peek() const;

  /// Monotone content stamp: number of pushes consolidated into this
  /// shard. Equal stamps imply byte-identical materialized content.
  int64_t data_version() const { return data_version_; }

  /// Seeds the stamp (checkpoint restore; combined with the facade's
  /// pull-epoch so restored state can never alias a pre-restore tag).
  void set_data_version(int64_t v) { data_version_ = v; }

  /// Sorted union of the keys pushed in (from_version, data_version()]
  /// — a superset of the keys whose value changed — if it holds fewer
  /// than `key_limit` keys. Returns false when it does not (the union
  /// stops growing at the push that reaches the limit), or when the log
  /// does not reach back to `from_version` (evicted, disabled, or rule
  /// not delta-capable); the caller must ship the whole block instead.
  bool DeltaSince(int64_t from_version, size_t key_limit,
                  std::vector<int64_t>* keys);

  /// Versions created on this partition.
  int64_t CurrentVersion() const { return rule_->CurrentVersion(); }

  /// Complete-version count this partition reports to the master (§6).
  int64_t CompletedVersionCount() const {
    return rule_->CompletedVersionCount();
  }

  /// Bytes held by the parameter block itself.
  size_t ParamMemoryBytes() const { return param_.MemoryBytes(); }

  /// Bytes of consolidation-rule auxiliary state (multi-version updates
  /// plus the delta log).
  size_t AuxMemoryBytes() const {
    return rule_->AuxMemoryBytes() + delta_log_keys_ * sizeof(int64_t);
  }

  /// Number of pushes consolidated so far.
  int64_t push_count() const { return push_count_; }
  void set_push_count(int64_t count) { push_count_ = count; }

  const ParamBlock& param() const { return param_; }
  ParamBlock* mutable_param() { return &param_; }
  const ConsolidationRule& rule() const { return *rule_; }
  ConsolidationRule* mutable_rule() { return rule_.get(); }

 private:
  struct LoggedPush {
    int64_t version;            // data_version_ after this push
    std::vector<int64_t> keys;  // the push's sorted support
  };

  void AppendKeys(std::vector<int64_t> keys);

  int shard_id_;
  ParamBlock param_;
  std::unique_ptr<ConsolidationRule> rule_;
  int64_t push_count_ = 0;
  int64_t data_version_ = 0;

  // Delta log (newest at the back). Kept only when the rule's pushes are
  // support-local; bounded by depth and by total keys (once the log
  // holds more keys than the block, a patch can no longer win).
  bool track_deltas_ = false;
  int delta_log_depth_ = 0;
  size_t delta_log_keys_ = 0;
  std::deque<LoggedPush> delta_log_;
  // DeltaSince's union, one bit per key; all zero between calls.
  // Allocated on the first union.
  std::vector<uint64_t> union_bits_;
};

}  // namespace hetps

#endif  // HETPS_PS_SERVER_SHARD_H_
