#include "ps/server_shard.h"

#include <algorithm>
#include <iterator>

#include "util/logging.h"

namespace hetps {

ServerShard::ServerShard(int shard_id, size_t dim,
                         const ConsolidationRule& rule_proto,
                         int num_workers, int delta_log_depth)
    : shard_id_(shard_id),
      param_(dim),
      rule_(rule_proto.Clone()),
      delta_log_depth_(delta_log_depth) {
  rule_->Reset(dim, num_workers);
  track_deltas_ =
      delta_log_depth_ > 0 && rule_->PushTouchesOnlyUpdateSupport();
}

void ServerShard::Push(int worker, int clock,
                       const SparseVector& local_update) {
  rule_->OnPush(worker, clock, local_update, &param_);
  ++push_count_;
  ++data_version_;
  // The rule promises to touch only the update's support, so those keys
  // are all a reader needs to re-fetch. An empty update still logs an
  // (empty) record to keep DeltaSince's version chain contiguous.
  if (track_deltas_) AppendKeys(local_update.indices());
}

void ServerShard::AppendKeys(std::vector<int64_t> keys) {
  delta_log_keys_ += keys.size();
  delta_log_.push_back(LoggedPush{data_version_, std::move(keys)});
  // Bound by depth, and by total keys: once the log holds more keys than
  // the block (plus slack), a patch can no longer beat a whole-block
  // ship, so keeping more history is pure overhead.
  const size_t key_cap = param_.dim() + 4;
  while (delta_log_.size() > static_cast<size_t>(delta_log_depth_) ||
         delta_log_keys_ > key_cap) {
    delta_log_keys_ -= delta_log_.front().keys.size();
    delta_log_.pop_front();
    if (delta_log_.empty()) break;
  }
}

bool ServerShard::DeltaSince(int64_t from_version,
                             std::vector<int64_t>* keys) const {
  HETPS_CHECK(keys != nullptr) << "null key output";
  if (!track_deltas_) return false;
  if (from_version > data_version_) return false;  // alien tag
  keys->clear();
  if (from_version == data_version_) return true;
  // The log holds consecutive versions ending at data_version_; it can
  // cover (from_version, data_version_] iff its oldest entry is
  // from_version + 1.
  if (delta_log_.empty() || delta_log_.front().version > from_version + 1) {
    return false;
  }
  std::vector<int64_t> merged;
  for (const LoggedPush& push : delta_log_) {
    if (push.version <= from_version) continue;
    merged.clear();
    std::set_union(keys->begin(), keys->end(), push.keys.begin(),
                   push.keys.end(), std::back_inserter(merged));
    keys->swap(merged);
  }
  return true;
}

int64_t ServerShard::WirePayloadBytes() const {
  const int64_t dense_bytes =
      static_cast<int64_t>(param_.dim()) *
      static_cast<int64_t>(sizeof(double));
  const int64_t sparse_bytes =
      static_cast<int64_t>(param_.CountNonZero()) *
      static_cast<int64_t>(sizeof(int64_t) + sizeof(double));
  return std::min(dense_bytes, sparse_bytes);
}

std::vector<double> ServerShard::Pull(int worker, int cmax) {
  rule_->OnPull(worker, cmax);
  return rule_->Materialize(param_);
}

std::vector<double> ServerShard::PullAtVersion(int worker, int cmax,
                                               int64_t version) {
  rule_->OnPull(worker, cmax);
  return rule_->MaterializeAtVersion(param_, version);
}

std::vector<double> ServerShard::Peek() const {
  return rule_->Materialize(param_);
}

}  // namespace hetps
