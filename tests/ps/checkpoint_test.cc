#include "ps/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/dyn_sgd.h"
#include "util/rng.h"

namespace hetps {
namespace {

PsOptions Options() {
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.sync = SyncPolicy::Ssp(2);
  return opts;
}

// Drives some realistic traffic through the PS.
void PushTraffic(ParameterServer* ps, int clocks) {
  Rng rng(4);
  for (int c = 0; c < clocks; ++c) {
    for (int m = 0; m < ps->num_workers(); ++m) {
      SparseVector u;
      for (int64_t j = 0; j < ps->dim(); ++j) {
        if (rng.NextBernoulli(0.3)) u.PushBack(j, rng.NextGaussian());
      }
      ps->Push(m, c, u);
      if (c % 2 == 1) ps->PullDelta(m, {});  // stamps DynSGD pull state
    }
  }
}

TEST(CheckpointTest, RoundTripRestoresDynSgdStateExactly) {
  DynSgdRule rule;
  ParameterServer ps(24, 3, rule, Options());
  PushTraffic(&ps, 5);
  const std::vector<double> before = ps.Snapshot();

  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());

  // A freshly constructed server restores to identical state.
  ParameterServer restored(24, 3, rule, Options());
  ASSERT_TRUE(restored.LoadCheckpoint(buffer).ok());
  EXPECT_EQ(restored.Snapshot(), before);
  EXPECT_EQ(restored.cmin(), ps.cmin());
  EXPECT_EQ(restored.cmax(), ps.cmax());
  EXPECT_EQ(restored.StableVersion(), ps.StableVersion());
  EXPECT_EQ(restored.TotalPushes(), ps.TotalPushes());
  EXPECT_EQ(restored.AuxMemoryBytes(), ps.AuxMemoryBytes());
}

TEST(CheckpointTest, TrainingContinuesIdenticallyAfterRestore) {
  DynSgdRule rule;
  ParameterServer original(16, 2, rule, Options());
  PushTraffic(&original, 4);

  std::stringstream buffer;
  ASSERT_TRUE(original.SaveCheckpoint(buffer).ok());
  ParameterServer restored(16, 2, rule, Options());
  ASSERT_TRUE(restored.LoadCheckpoint(buffer).ok());

  // Apply the same subsequent pushes to both; states must stay equal —
  // including DynSGD's version revision behaviour.
  for (int c = 4; c < 7; ++c) {
    for (int m = 0; m < 2; ++m) {
      SparseVector u({static_cast<int64_t>(m), 10},
                     {1.0 + c, 0.5 * (m + 1)});
      original.Push(m, c, u);
      restored.Push(m, c, u);
    }
  }
  EXPECT_EQ(original.Snapshot(), restored.Snapshot());
  EXPECT_EQ(original.cmin(), restored.cmin());
}

TEST(CheckpointTest, WorksForStatelessRules) {
  SspRule rule;
  ParameterServer ps(8, 2, rule, Options());
  ps.Push(0, 0, SparseVector({1, 5}, {2.0, -1.0}));
  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());
  ParameterServer restored(8, 2, rule, Options());
  ASSERT_TRUE(restored.LoadCheckpoint(buffer).ok());
  EXPECT_EQ(restored.Snapshot(), ps.Snapshot());
}

TEST(CheckpointTest, RejectsShapeMismatch) {
  DynSgdRule rule;
  ParameterServer ps(8, 2, rule, Options());
  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());
  ParameterServer wrong_dim(16, 2, rule, Options());
  EXPECT_TRUE(
      wrong_dim.LoadCheckpoint(buffer).IsInvalidArgument());
  std::stringstream buffer2;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer2).ok());
  ParameterServer wrong_workers(8, 3, rule, Options());
  EXPECT_TRUE(
      wrong_workers.LoadCheckpoint(buffer2).IsInvalidArgument());
}

TEST(CheckpointTest, RejectsGarbage) {
  DynSgdRule rule;
  ParameterServer ps(8, 2, rule, Options());
  std::stringstream buffer("not a checkpoint\n");
  EXPECT_FALSE(ps.LoadCheckpoint(buffer).ok());
  std::stringstream truncated("hetps-checkpoint v1\n8 2");
  EXPECT_FALSE(ps.LoadCheckpoint(truncated).ok());
}

TEST(CheckpointTest, FailedRestoreLeavesServerUntouched) {
  // LoadCheckpoint is transactional: any decode failure must leave the
  // live server exactly as it was — a truncated file can never
  // half-restore. Truncate a valid checkpoint at every prefix length
  // that still fails to parse and verify state is bit-identical.
  DynSgdRule rule;
  ParameterServer source(16, 2, rule, Options());
  PushTraffic(&source, 4);
  std::stringstream buffer;
  ASSERT_TRUE(source.SaveCheckpoint(buffer).ok());
  const std::string full = buffer.str();

  ParameterServer target(16, 2, rule, Options());
  PushTraffic(&target, 2);  // distinct, nontrivial live state
  const std::vector<double> before = target.Snapshot();
  const int cmin_before = target.cmin();
  const int cmax_before = target.cmax();
  const int64_t pushes_before = target.TotalPushes();
  const int64_t stable_before = target.StableVersion();

  // A handful of truncation points spread across the file, including
  // mid-shard ones.
  for (size_t frac = 1; frac <= 9; ++frac) {
    const size_t len = full.size() * frac / 10;
    std::stringstream truncated(full.substr(0, len));
    const Status s = target.LoadCheckpoint(truncated);
    ASSERT_FALSE(s.ok()) << "prefix of " << len << " bytes parsed?";
    EXPECT_EQ(target.Snapshot(), before) << "len=" << len;
    EXPECT_EQ(target.cmin(), cmin_before);
    EXPECT_EQ(target.cmax(), cmax_before);
    EXPECT_EQ(target.TotalPushes(), pushes_before);
    EXPECT_EQ(target.StableVersion(), stable_before);
  }

  // After all the failed attempts, a good checkpoint still restores.
  std::stringstream good(full);
  ASSERT_TRUE(target.LoadCheckpoint(good).ok());
  EXPECT_EQ(target.Snapshot(), source.Snapshot());
}

TEST(CheckpointTest, FileRoundTrip) {
  DynSgdRule rule;
  ParameterServer ps(12, 2, rule, Options());
  PushTraffic(&ps, 3);
  const std::string path = testing::TempDir() + "/hetps_ckpt_test.txt";
  ASSERT_TRUE(SaveCheckpointToFile(ps, path).ok());
  ParameterServer restored(12, 2, rule, Options());
  ASSERT_TRUE(RestoreCheckpointFromFile(&restored, path).ok());
  EXPECT_EQ(restored.Snapshot(), ps.Snapshot());
  std::remove(path.c_str());
  EXPECT_FALSE(RestoreCheckpointFromFile(&restored, path).ok());
}

TEST(CheckpointTest, PreservesSparseLayout) {
  DynSgdRule rule;
  PsOptions opts = Options();
  ParameterServer ps(1000, 2, rule, opts);
  ps.Push(0, 0, SparseVector({5}, {1.0}));
  // Force one block sparse by compacting via checkpoint restore.
  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());
  ParameterServer restored(1000, 2, rule, opts);
  ASSERT_TRUE(restored.LoadCheckpoint(buffer).ok());
  for (int p = 0; p < restored.num_partitions(); ++p) {
    EXPECT_EQ(restored.shard(p).param().is_sparse(),
              ps.shard(p).param().is_sparse());
  }
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

size_t FindLine(const std::vector<std::string>& lines,
                const std::string& prefix, size_t from = 0) {
  for (size_t i = from; i < lines.size(); ++i) {
    if (lines[i].rfind(prefix, 0) == 0) return i;
  }
  ADD_FAILURE() << "no line starts with " << prefix;
  return lines.size();
}

// Rewrites one "index value index value ..." line of a checkpoint:
// `out_of_range` sets its last index to `dim` (still increasing, but
// past the block); otherwise the second entry repeats the first index,
// so the indices stop increasing.
std::string CorruptEntries(std::vector<std::string> lines, size_t line,
                           bool out_of_range, int64_t dim) {
  std::istringstream in(lines.at(line));
  std::vector<std::string> tokens;
  for (std::string t; in >> t;) tokens.push_back(t);
  EXPECT_GE(tokens.size(), 4u) << "need two entries on line " << line;
  if (tokens.size() < 4) return "";
  if (out_of_range) {
    tokens[tokens.size() - 2] = std::to_string(dim);
  } else {
    tokens[2] = tokens[0];
  }
  std::string rewritten;
  for (const std::string& t : tokens) rewritten += t + ' ';
  lines[line] = rewritten;
  std::string text;
  for (const std::string& l : lines) text += l + '\n';
  return text;
}

// Loads `corrupted` into a server with its own live state and checks
// the load fails with IOError and leaves that state as it was.
void ExpectRejectedUntouched(const ConsolidationRule& rule,
                             const std::string& corrupted) {
  ParameterServer target(16, 2, rule, Options());
  PushTraffic(&target, 2);
  const std::vector<double> before = target.Snapshot();
  const int cmin_before = target.cmin();
  const int64_t pushes_before = target.TotalPushes();
  std::stringstream is(corrupted);
  const Status s = target.LoadCheckpoint(is);
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
  EXPECT_EQ(target.Snapshot(), before);
  EXPECT_EQ(target.cmin(), cmin_before);
  EXPECT_EQ(target.TotalPushes(), pushes_before);
}

TEST(CheckpointTest, CorruptShardEntriesAreRejectedNotFatal) {
  // A shard entry index past the partition, or indices that stop
  // increasing, used to reach ParamBlock / SparseVector CHECKs and
  // abort the process. Both rules share the shard section.
  SspRule ssp;
  DynSgdRule dyn;
  for (const ConsolidationRule* rule :
       {static_cast<const ConsolidationRule*>(&ssp),
        static_cast<const ConsolidationRule*>(&dyn)}) {
    SCOPED_TRACE(rule->name());
    ParameterServer source(16, 2, *rule, Options());
    PushTraffic(&source, 4);
    std::stringstream buffer;
    ASSERT_TRUE(source.SaveCheckpoint(buffer).ok());
    const std::vector<std::string> lines = Lines(buffer.str());
    const size_t entries = FindLine(lines, "shard 1 ") + 1;
    for (const bool out_of_range : {true, false}) {
      SCOPED_TRACE(out_of_range ? "index >= dim" : "not increasing");
      ExpectRejectedUntouched(
          *rule, CorruptEntries(lines, entries, out_of_range,
                                source.partitioner().PartitionDim(1)));
    }
  }
}

TEST(CheckpointTest, CorruptDynSgdVersionEntriesAreRejectedNotFatal) {
  // The same corruptions inside DynSGD's version summaries.
  DynSgdRule rule;
  ParameterServer source(16, 2, rule, Options());
  PushTraffic(&source, 4);
  // Worker 0 runs a clock ahead, so its version stays live.
  std::vector<double> ahead(16, 0.25);
  source.Push(0, 4, SparseVector::FromDense(ahead));
  std::stringstream buffer;
  ASSERT_TRUE(source.SaveCheckpoint(buffer).ok());
  const std::vector<std::string> lines = Lines(buffer.str());
  // dyn-state, V(m), counters, version count, then the first version's
  // header and its entries.
  const size_t state =
      FindLine(lines, "dyn-state", FindLine(lines, "shard 0 "));
  ASSERT_NE(lines.at(state + 3), "0") << "no live version to corrupt";
  const size_t entries = state + 5;
  for (const bool out_of_range : {true, false}) {
    SCOPED_TRACE(out_of_range ? "index >= dim" : "not increasing");
    ExpectRejectedUntouched(
        rule, CorruptEntries(lines, entries, out_of_range,
                             source.partitioner().PartitionDim(0)));
  }
}

}  // namespace
}  // namespace hetps
