// Encoder parity of the partition read: every piece BuildPartitionPull
// serves, and every plan PlanPullPiece makes, must equal a test-local
// reference built the plain way — materialize the block, count its
// nonzeros, emit it with a PushBack loop — bitwise: encoding, tag,
// indices, values, bytes and bytes_full. Patches are checked against a
// test-local model of the shard's bounded delta log and an unbounded
// std::set_union chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "ps/parameter_server.h"
#include "util/rng.h"

namespace hetps {
namespace {

constexpr int64_t kSparseEntryBytes = sizeof(int64_t) + sizeof(double);

bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The 50% rule on a materialized block, counting entries != 0.0.
int64_t ReferenceServedBytes(const std::vector<double>& block) {
  int64_t nnz = 0;
  for (double v : block) {
    if (v != 0.0) ++nnz;
  }
  return std::min(static_cast<int64_t>(block.size() * sizeof(double)),
                  nnz * kSparseEntryBytes);
}

/// The 50% rule on the parameter block, counting entries with |x| > 0.
int64_t ReferenceFullBytes(const ParamBlock& w) {
  int64_t nnz = 0;
  for (double v : w.ToDense()) {
    if (std::fabs(v) > 0.0) ++nnz;
  }
  return std::min(static_cast<int64_t>(w.dim() * sizeof(double)),
                  nnz * kSparseEntryBytes);
}

SparseVector ReferenceFromDense(const std::vector<double>& block) {
  SparseVector out;
  for (size_t i = 0; i < block.size(); ++i) {
    if (std::fabs(block[i]) > 0.0) {
      out.PushBack(static_cast<int64_t>(i), block[i]);
    }
  }
  return out;
}

/// A shard's bounded delta log: the sorted key set of each push, capped
/// by depth and by total keys (block dim + 4).
class KeyLog {
 public:
  void Append(int64_t version, const std::vector<int64_t>& keys,
              size_t depth, size_t key_cap) {
    total_ += keys.size();
    entries_.push_back({version, keys});
    while (entries_.size() > depth || total_ > key_cap) {
      total_ -= entries_.front().keys.size();
      entries_.pop_front();
      if (entries_.empty()) break;
    }
  }

  /// Union of the keys pushed in (from, now]; false when the log does
  /// not reach back to `from`.
  bool Since(int64_t from, int64_t now, std::vector<int64_t>* keys) const {
    keys->clear();
    if (from > now) return false;
    if (from == now) return true;
    if (entries_.empty() || entries_.front().version > from + 1) {
      return false;
    }
    for (const Entry& e : entries_) {
      if (e.version <= from) continue;
      std::vector<int64_t> merged;
      std::set_union(keys->begin(), keys->end(), e.keys.begin(),
                     e.keys.end(), std::back_inserter(merged));
      keys->swap(merged);
    }
    return true;
  }

 private:
  struct Entry {
    int64_t version;
    std::vector<int64_t> keys;
  };
  std::deque<Entry> entries_;
  size_t total_ = 0;
};

struct ParityConfig {
  std::string name;
  std::function<std::unique_ptr<ConsolidationRule>()> make_rule;
  bool partition_sync = false;
  bool sparse_layout = false;  // store every parameter block sparse
};

std::vector<ParityConfig> Configs() {
  const auto dyn = [](DynSgdRule::ApplyMode mode) {
    return [mode] {
      DynSgdRule::Options o;
      o.mode = mode;
      return std::unique_ptr<ConsolidationRule>(
          std::make_unique<DynSgdRule>(o));
    };
  };
  return {
      {"con", [] { return std::unique_ptr<ConsolidationRule>(
                       std::make_unique<ConRule>()); }},
      {"ssp", [] { return std::unique_ptr<ConsolidationRule>(
                       std::make_unique<SspRule>()); }},
      {"dyn-immediate", dyn(DynSgdRule::ApplyMode::kImmediate)},
      {"dyn-deferred-partition-sync", dyn(DynSgdRule::ApplyMode::kDeferred),
       /*partition_sync=*/true},
      {"con-sparse-layout",
       [] { return std::unique_ptr<ConsolidationRule>(
                std::make_unique<ConRule>()); },
       /*partition_sync=*/false, /*sparse_layout=*/true},
  };
}

class PieceChecker {
 public:
  PieceChecker(ParameterServer* ps, const ConsolidationRule& rule,
               size_t log_depth)
      : ps_(ps),
        track_(rule.PushTouchesOnlyUpdateSupport()),
        versioned_rule_(ps->options().partition_sync &&
                        rule.SupportsVersionedSnapshots()),
        log_depth_(log_depth),
        logs_(static_cast<size_t>(ps->num_partitions())),
        served_tags_(static_cast<size_t>(ps->num_partitions())) {}

  /// Pushes through the facade and logs the key set of every piece that
  /// bumped its shard's data version.
  void Push(int worker, int clock, const SparseVector& update) {
    const int parts = ps_->num_partitions();
    std::vector<int64_t> before(static_cast<size_t>(parts));
    for (int p = 0; p < parts; ++p) {
      before[static_cast<size_t>(p)] = ps_->shard(p).data_version();
    }
    const std::vector<SparseVector> pieces =
        ps_->partitioner().SplitByPartition(update);
    ps_->Push(worker, clock, update);
    for (int p = 0; p < parts; ++p) {
      const size_t slot = static_cast<size_t>(p);
      const int64_t now = ps_->shard(p).data_version();
      if (now == before[slot]) continue;
      ASSERT_EQ(now, before[slot] + 1);
      logs_[slot].Append(now, pieces[slot].indices(), log_depth_,
                         static_cast<size_t>(ps_->shard(p).dim()) + 4);
    }
  }

  /// Reads every partition for `worker` with no cached tag and with
  /// every tag served for it so far, live and at the stable version.
  void CheckAllPieces(int worker) {
    const std::vector<int64_t> versions = {-1, ps_->StableVersion()};
    for (int p = 0; p < ps_->num_partitions(); ++p) {
      for (int64_t version : versions) {
        std::vector<int64_t> cached = {kNoCachedTag};
        const auto& served = served_tags_[static_cast<size_t>(p)];
        cached.insert(cached.end(), served.begin(), served.end());
        for (int64_t tag : cached) CheckPiece(p, worker, version, tag);
      }
    }
  }

  int seen(PartitionPull::Encoding e) const {
    return seen_[static_cast<int>(e)];
  }

 private:
  void CheckPiece(int p, int worker, int64_t version, int64_t cached_tag) {
    SCOPED_TRACE("partition " + std::to_string(p) + " version " +
                 std::to_string(version) + " cached tag " +
                 std::to_string(cached_tag));
    const ServerShard& shard = ps_->shard(p);
    const ParamBlock& w = shard.param();
    const bool versioned = versioned_rule_ && version >= 0;
    // Epoch 0: no checkpoint was restored.
    const int64_t tag = versioned ? (int64_t{1} << 61) | version
                                  : shard.data_version();
    const int64_t bytes_full = ReferenceFullBytes(w);

    PartitionPull want;
    want.partition = p;
    want.tag = tag;
    int64_t want_bytes = 0;
    int64_t want_planned_bytes = 0;
    std::vector<int64_t> keys;
    if (cached_tag == tag) {
      want.encoding = PartitionPull::Encoding::kUnchanged;
    } else if (!versioned && cached_tag >= 0 &&
               !ParameterServer::TagIsVersioned(cached_tag) && track_ &&
               logs_[static_cast<size_t>(p)].Since(
                   ParameterServer::TagValue(cached_tag),
                   shard.data_version(), &keys) &&
               static_cast<int64_t>(keys.size()) * kSparseEntryBytes <
                   bytes_full) {
      want.encoding = PartitionPull::Encoding::kSparsePatch;
      want.base_tag = cached_tag;
      std::vector<double> values;
      for (int64_t k : keys) values.push_back(w.At(static_cast<size_t>(k)));
      want_bytes = static_cast<int64_t>(keys.size()) * kSparseEntryBytes;
      want_planned_bytes = want_bytes;
      want.sparse = SparseVector(std::move(keys), std::move(values));
    } else {
      std::vector<double> block =
          version >= 0 ? shard.rule().MaterializeAtVersion(w, version)
                       : shard.rule().Materialize(w);
      want_bytes = ReferenceServedBytes(block);
      want_planned_bytes = bytes_full;
      if (want_bytes <
          static_cast<int64_t>(block.size() * sizeof(double))) {
        want.encoding = PartitionPull::Encoding::kSparse;
        want.sparse = ReferenceFromDense(block);
      } else {
        want.encoding = PartitionPull::Encoding::kDense;
        want.dense = std::move(block);
      }
    }

    const PiecePullPlan plan =
        ps_->PlanPullPiece(p, worker, version, cached_tag);
    PiecePullPlan served;
    const PartitionPull got =
        ps_->BuildPartitionPull(p, worker, version, cached_tag, &served);

    EXPECT_EQ(got.partition, p);
    EXPECT_EQ(got.encoding, want.encoding);
    EXPECT_EQ(got.tag, want.tag);
    EXPECT_EQ(got.sparse.indices(), want.sparse.indices());
    EXPECT_TRUE(BitsEqual(got.sparse.values(), want.sparse.values()));
    EXPECT_TRUE(BitsEqual(got.dense, want.dense));
    if (want.encoding == PartitionPull::Encoding::kSparsePatch) {
      EXPECT_EQ(got.base_tag, want.base_tag);
    }
    const bool changed =
        want.encoding != PartitionPull::Encoding::kUnchanged;
    const bool patch =
        want.encoding == PartitionPull::Encoding::kSparsePatch;
    EXPECT_EQ(served.changed, changed);
    EXPECT_EQ(served.patch, patch);
    EXPECT_EQ(served.tag, tag);
    EXPECT_EQ(served.bytes, want_bytes);
    EXPECT_EQ(served.bytes_full, bytes_full);
    EXPECT_EQ(plan.changed, changed);
    EXPECT_EQ(plan.patch, patch);
    EXPECT_EQ(plan.tag, tag);
    EXPECT_EQ(plan.bytes, want_planned_bytes);
    EXPECT_EQ(plan.bytes_full, bytes_full);
    ++seen_[static_cast<int>(got.encoding)];
    auto& tags = served_tags_[static_cast<size_t>(p)];
    if (std::find(tags.begin(), tags.end(), got.tag) == tags.end()) {
      tags.push_back(got.tag);
    }
  }

  ParameterServer* ps_;
  bool track_;
  bool versioned_rule_;
  size_t log_depth_;
  std::vector<KeyLog> logs_;
  std::vector<std::vector<int64_t>> served_tags_;
  int seen_[4] = {0, 0, 0, 0};
};

TEST(PullDeltaTest, PiecesMatchTheMaterializeReferenceBitwise) {
  // Six partitions of 100 keys, filled to densities 0, 0.1, 0.49, 0.5,
  // 0.51 and 1.0 — each side of the 50% rule and on it. Two blocks hold
  // a NaN (counted as a nonzero by the served block's rule, dropped by
  // the sparse emit and the parameter block's count) and every block
  // holds -0.0 entries.
  const int64_t kPartDim = 100;
  const int kParts = 6;
  const int kWorkers = 2;
  const int64_t counts[kParts] = {0, 10, 49, 50, 51, 100};
  const int kLogDepth = 6;
  for (PartitionScheme scheme :
       {PartitionScheme::kRangeHash, PartitionScheme::kHash}) {
    for (const ParityConfig& config : Configs()) {
      SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " / " +
                   config.name);
      const std::unique_ptr<ConsolidationRule> rule = config.make_rule();
      PsOptions opts;
      opts.num_servers = 3;
      opts.partitions_per_server = 2;
      opts.scheme = scheme;
      opts.sync = SyncPolicy::Asp();
      opts.partition_sync = config.partition_sync;
      opts.delta_log_depth = kLogDepth;
      opts.pull_parallelism = 1;
      ParameterServer ps(kPartDim * kParts, kWorkers, *rule, opts);
      ASSERT_EQ(ps.num_partitions(), kParts);
      const Partitioner& layout = ps.partitioner();
      for (int p = 0; p < kParts; ++p) {
        ASSERT_EQ(layout.PartitionDim(p), kPartDim);
        // No push can store -0.0 (+0.0 + -0.0 is +0.0), so it is written
        // into the block directly, before any read hands out a tag.
        ParamBlock* w =
            const_cast<ServerShard&>(ps.shard(p)).mutable_param();
        if (config.sparse_layout) {
          w->ForceLayout(ParamBlock::Layout::kSparse);
        } else {
          w->Set(static_cast<size_t>(kPartDim - 1), -0.0);
          w->Set(static_cast<size_t>(kPartDim - 2), -0.0);
        }
      }
      PieceChecker checker(&ps, *rule, kLogDepth);

      // Clock 0: worker 0 fills every block to its density; worker 1
      // pushes one key, so a deferred-DynSGD version completes.
      std::vector<std::pair<int64_t, double>> fill;
      for (int p = 0; p < kParts; ++p) {
        for (int64_t l = 0; l < counts[p]; ++l) {
          double v = 0.25 * static_cast<double>(l + 1) *
                     ((l % 2 == 0) ? 1.0 : -1.0);
          if ((p == 2 || p == 3) && l == 0) v = std::nan("");
          fill.emplace_back(layout.GlobalIndex(p, l), v);
        }
      }
      std::sort(fill.begin(), fill.end());
      std::vector<int64_t> idx;
      std::vector<double> val;
      for (const auto& [k, v] : fill) {
        idx.push_back(k);
        val.push_back(v);
      }
      checker.CheckAllPieces(0);
      checker.Push(0, 0, SparseVector(idx, val));
      checker.CheckAllPieces(1);
      checker.Push(1, 0, SparseVector({layout.GlobalIndex(1, 3)}, {0.5}));
      checker.CheckAllPieces(0);

      // Later clocks: each worker pushes a few keys of one or two
      // blocks, now and then a whole block; pulls read with every tag
      // served so far, so patches over short and long spans, evicted
      // spans and unchanged reads all occur.
      Rng rng(7);
      for (int clock = 1; clock <= 12; ++clock) {
        for (int worker = 0; worker < kWorkers; ++worker) {
          std::vector<std::pair<int64_t, double>> entries;
          const int touched = 1 + static_cast<int>(rng.NextUint64(2));
          for (int t = 0; t < touched; ++t) {
            const int p = static_cast<int>(rng.NextUint64(kParts));
            const bool whole = rng.NextBernoulli(0.1);
            const int64_t n =
                whole ? kPartDim
                      : 1 + static_cast<int64_t>(rng.NextUint64(6));
            for (int64_t j = 0; j < n; ++j) {
              const int64_t l =
                  whole ? j
                        : static_cast<int64_t>(rng.NextUint64(kPartDim));
              entries.emplace_back(layout.GlobalIndex(p, l),
                                   rng.NextDouble() - 0.5);
            }
          }
          std::sort(entries.begin(), entries.end());
          idx.clear();
          val.clear();
          for (const auto& [k, v] : entries) {
            if (!idx.empty() && idx.back() == k) continue;
            idx.push_back(k);
            val.push_back(v);
          }
          checker.Push(worker, clock, SparseVector(idx, val));
          checker.CheckAllPieces(1 - worker);
          if (HasFailure()) return;
        }
      }
      EXPECT_GT(checker.seen(PartitionPull::Encoding::kUnchanged), 0);
      EXPECT_GT(checker.seen(PartitionPull::Encoding::kSparse), 0);
      EXPECT_GT(checker.seen(PartitionPull::Encoding::kDense), 0);
      if (rule->PushTouchesOnlyUpdateSupport()) {
        EXPECT_GT(checker.seen(PartitionPull::Encoding::kSparsePatch), 0);
      }
    }
  }
}

}  // namespace
}  // namespace hetps
