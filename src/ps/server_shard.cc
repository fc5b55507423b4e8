#include "ps/server_shard.h"

#include <algorithm>
#include <bit>

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

bool ServerShard::DeltaSince(int64_t from_version, size_t key_limit,
                             std::vector<int64_t>* keys) {
  HETPS_CHECK(keys != nullptr) << "null key output";
  if (!track_deltas_) return false;
  if (from_version > data_version_) return false;  // alien tag
  keys->clear();
  if (from_version == data_version_) return key_limit > 0;
  // The log holds consecutive versions ending at data_version_; it can
  // cover (from_version, data_version_] iff its oldest entry is
  // from_version + 1.
  if (delta_log_.empty() || delta_log_.front().version > from_version + 1) {
    return false;
  }
  if (union_bits_.empty()) union_bits_.assign((dim() + 63) / 64, 0);
  // Mark each push's keys, counting first sightings, and stop at the
  // push that takes the union to the limit. [lo, hi) bounds the words
  // touched, so emitting or clearing never scans the whole bitmap.
  size_t count = 0;
  size_t lo = union_bits_.size();
  size_t hi = 0;
  const auto first = delta_log_.begin() + (from_version + 1 -
                                           delta_log_.front().version);
  for (auto it = first; it != delta_log_.end() && count < key_limit; ++it) {
    const std::vector<int64_t>& pushed = it->keys;
    if (pushed.empty()) continue;
    lo = std::min(lo, static_cast<size_t>(pushed.front()) / 64);
    hi = std::max(hi, static_cast<size_t>(pushed.back()) / 64 + 1);
    for (int64_t key : pushed) {
      uint64_t& word = union_bits_[static_cast<size_t>(key) / 64];
      const uint64_t bit = uint64_t{1} << (key % 64);
      count += (word & bit) == 0;
      word |= bit;
    }
  }
  const bool fits = count < key_limit;
  if (fits) keys->reserve(count);
  for (size_t w = lo; w < hi; ++w) {
    uint64_t bits = union_bits_[w];
    union_bits_[w] = 0;
    for (; fits && bits != 0; bits &= bits - 1) {
      keys->push_back(static_cast<int64_t>(w * 64) + std::countr_zero(bits));
    }
  }
  return fits;
}

std::vector<double> ServerShard::Peek() const {
  return rule_->Materialize(param_);
}

}  // namespace hetps
