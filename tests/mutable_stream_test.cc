// Tests for mutable streams: delete and correction increments
// end-to-end. The contract under test is the delete-then-replay
// oracle: a stream that ingests records and later deletes (or
// corrects) some of them must converge to exactly the clusters of a
// stream that never contained the deleted records (and always carried
// the corrected content) -- at every shard count, and across a
// mid-stream checkpoint/restore. Plus unit coverage for the pair
// registry (the retractable pair filter), the counting Bloom filter
// (kept as the benchmark baseline), and a concurrent delete-vs-query
// stress (this binary runs under TSan).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pier_pipeline.h"
#include "datagen/generators.h"
#include "model/comparison.h"
#include "model/pair_filter.h"
#include "persist/checkpoint_manager.h"
#include "serve/cluster_index.h"
#include "similarity/parallel_executor.h"
#include "stream/sharded_pipeline.h"
#include "util/counting_bloom_filter.h"
#include "util/serial.h"

namespace pier {
namespace {

uint64_t TestKey(uint64_t i) { return (i + 1) * 0x9E3779B97F4A7C15ull; }

// ---------------------------------------------------------------------------
// CountingBloomFilter (single slice)

TEST(CountingBloomFilterTest, AddRemoveSingleKey) {
  CountingBloomFilter filter(64, 0.01);
  EXPECT_FALSE(filter.MayContain(TestKey(1)));
  filter.Add(TestKey(1));
  EXPECT_TRUE(filter.MayContain(TestKey(1)));
  EXPECT_TRUE(filter.Remove(TestKey(1)));
  // The only key's cells were at 1; the decrement empties the filter.
  EXPECT_FALSE(filter.MayContain(TestKey(1)));
  // Removing a definitely-absent key touches nothing and says so.
  EXPECT_FALSE(filter.Remove(TestKey(2)));
}

TEST(CountingBloomFilterTest, NoFalseNegativesUnderInterleavedRemovals) {
  CountingBloomFilter filter(256, 0.01);
  for (uint64_t i = 0; i < 200; ++i) filter.Add(TestKey(i));
  for (uint64_t i = 0; i < 200; i += 2) filter.Remove(TestKey(i));
  // Survivors must all still test positive: removals may only clear
  // cells the removed keys actually own (or leave saturated cells
  // alone), never cells a live key depends on exclusively.
  for (uint64_t i = 1; i < 200; i += 2) {
    EXPECT_TRUE(filter.MayContain(TestKey(i))) << i;
  }
  // Most removed keys are really gone (false positives allowed).
  size_t lingering = 0;
  for (uint64_t i = 0; i < 200; i += 2) {
    if (filter.MayContain(TestKey(i))) ++lingering;
  }
  EXPECT_LT(lingering, 30u);
}

TEST(CountingBloomFilterTest, SaturatedCellsStick) {
  CountingBloomFilter filter(16, 0.01);
  // Four insertions drive every cell of the key to the 2-bit ceiling
  // (3), which is sticky: removals skip saturated cells so a live key
  // sharing them can never be falsely evicted.
  for (int i = 0; i < 4; ++i) filter.Add(TestKey(7));
  for (int i = 0; i < 4; ++i) filter.Remove(TestKey(7));
  EXPECT_TRUE(filter.MayContain(TestKey(7)));
}

TEST(CountingBloomFilterTest, SnapshotRoundTripAndTruncationRejection) {
  CountingBloomFilter filter(128, 0.01);
  for (uint64_t i = 0; i < 100; ++i) filter.Add(TestKey(i));
  for (uint64_t i = 0; i < 40; ++i) filter.Remove(TestKey(i));
  std::ostringstream out;
  filter.Snapshot(out);
  const std::string bytes = out.str();
  {
    std::istringstream in(bytes);
    auto restored = CountingBloomFilter::FromSnapshot(in);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->num_insertions(), filter.num_insertions());
    EXPECT_EQ(restored->num_removals(), filter.num_removals());
    for (uint64_t i = 0; i < 150; ++i) {
      EXPECT_EQ(restored->MayContain(TestKey(i)), filter.MayContain(TestKey(i)))
          << i;
    }
    std::ostringstream again;
    restored->Snapshot(again);
    EXPECT_EQ(again.str(), bytes);
  }
  for (size_t len = 0; len < bytes.size(); len += 9) {
    std::istringstream in(bytes.substr(0, len));
    EXPECT_EQ(CountingBloomFilter::FromSnapshot(in), nullptr) << len;
  }
}

// ---------------------------------------------------------------------------
// ScalableCountingBloomFilter

TEST(ScalableCountingBloomFilterTest, TestAndAddGrowsAndRemoves) {
  ScalableCountingBloomFilter::Options options;
  options.initial_capacity = 32;
  ScalableCountingBloomFilter filter(options);
  // The removal contract requires pairing each Remove with a prior
  // *actual* insert (a TestAndAdd that returned false) -- removing a
  // key whose insert was swallowed as a false positive decrements
  // cells other keys own. The pipeline enforces this via its pair
  // registries; the test mirrors it by only removing `inserted` keys.
  std::vector<uint64_t> inserted;
  size_t false_positives = 0;
  for (uint64_t i = 0; i < 500; ++i) {
    if (filter.TestAndAdd(TestKey(i))) {
      ++false_positives;
    } else {
      inserted.push_back(TestKey(i));
    }
  }
  EXPECT_LT(false_positives, 25u);  // design rate ~1%, tightened
  EXPECT_GT(filter.num_slices(), 1u);
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_TRUE(filter.MayContain(TestKey(i))) << i;
    EXPECT_TRUE(filter.TestAndAdd(TestKey(i))) << i;
  }
  ASSERT_GT(inserted.size(), 400u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(filter.Remove(inserted[i])) << i;
  }
  // Survivors span every growth slice and must all remain present.
  for (size_t i = 100; i < inserted.size(); ++i) {
    EXPECT_TRUE(filter.MayContain(inserted[i])) << i;
  }
  size_t lingering = 0;
  for (size_t i = 0; i < 100; ++i) {
    if (filter.MayContain(inserted[i])) ++lingering;
  }
  EXPECT_LT(lingering, 30u);
}

TEST(ScalableCountingBloomFilterTest, SnapshotRoundTripsByteIdentically) {
  ScalableCountingBloomFilter::Options options;
  options.initial_capacity = 64;
  ScalableCountingBloomFilter filter(options);
  for (uint64_t i = 0; i < 300; ++i) filter.Add(TestKey(i));
  for (uint64_t i = 0; i < 80; ++i) filter.Remove(TestKey(i));
  std::ostringstream out;
  filter.Snapshot(out);
  const std::string bytes = out.str();

  ScalableCountingBloomFilter restored(options);
  std::istringstream in(bytes);
  ASSERT_TRUE(restored.Restore(in));
  EXPECT_EQ(restored.num_slices(), filter.num_slices());
  EXPECT_EQ(restored.num_insertions(), filter.num_insertions());
  EXPECT_EQ(restored.num_removals(), filter.num_removals());
  for (uint64_t i = 0; i < 400; ++i) {
    EXPECT_EQ(restored.MayContain(TestKey(i)), filter.MayContain(TestKey(i)))
        << i;
  }
  std::ostringstream again;
  restored.Snapshot(again);
  EXPECT_EQ(again.str(), bytes);
}

TEST(ScalableCountingBloomFilterTest, RestoreSurvivesHostileSnapshots) {
  ScalableCountingBloomFilter::Options options;
  options.initial_capacity = 64;
  ScalableCountingBloomFilter filter(options);
  for (uint64_t i = 0; i < 200; ++i) filter.Add(TestKey(i));
  std::ostringstream out;
  filter.Snapshot(out);
  const std::string bytes = out.str();
  // Every truncation must be rejected (and never crash or over-read).
  for (size_t len = 0; len < bytes.size(); len += 7) {
    ScalableCountingBloomFilter restored(options);
    std::istringstream in(bytes.substr(0, len));
    EXPECT_FALSE(restored.Restore(in)) << "truncated at " << len;
  }
  // Single-byte corruption: sizing/bookkeeping damage must be
  // rejected; damage confined to cell payloads may decode, but the
  // restored filter must stay safely queryable either way.
  for (size_t pos = 0; pos < bytes.size(); pos += 11) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    ScalableCountingBloomFilter restored(options);
    std::istringstream in(corrupt);
    if (restored.Restore(in)) {
      for (uint64_t i = 0; i < 50; ++i) {
        (void)restored.MayContain(TestKey(i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PairRegistry

TEST(PairRegistryTest, TakeErasesBothDirectionsExactlyOnce) {
  PairRegistry registry;
  registry.Add(1, 2);
  registry.Add(1, 3);
  registry.Add(2, 3);
  EXPECT_EQ(registry.num_pairs(), 3u);

  std::vector<ProfileId> taken = registry.Take(1);
  std::sort(taken.begin(), taken.end());
  EXPECT_EQ(taken, (std::vector<ProfileId>{2, 3}));
  EXPECT_EQ(registry.num_pairs(), 1u);
  // The reverse directions are gone: 2 and 3 no longer report 1.
  EXPECT_EQ(registry.Take(2), (std::vector<ProfileId>{3}));
  EXPECT_EQ(registry.num_pairs(), 0u);
  EXPECT_TRUE(registry.Take(3).empty());
  EXPECT_TRUE(registry.empty());
  EXPECT_TRUE(registry.Take(99).empty());
}

TEST(PairRegistryTest, SnapshotRoundTripsCanonically) {
  PairRegistry registry;
  registry.Add(5, 2);
  registry.Add(2, 9);
  registry.Add(5, 9);
  registry.Add(0, 5);
  std::ostringstream out;
  registry.Snapshot(out);
  const std::string bytes = out.str();

  PairRegistry restored;
  std::istringstream in(bytes);
  ASSERT_TRUE(restored.Restore(in));
  EXPECT_EQ(restored.num_pairs(), registry.num_pairs());
  std::ostringstream again;
  restored.Snapshot(again);
  EXPECT_EQ(again.str(), bytes);

  std::vector<ProfileId> taken = restored.Take(5);
  std::sort(taken.begin(), taken.end());
  EXPECT_EQ(taken, (std::vector<ProfileId>{0, 2, 9}));
}

TEST(PairRegistryTest, RestoreRejectsMalformedPayloads) {
  // Asymmetric content: a single direction (odd total) cannot come
  // from a Snapshot, which records every pair under both endpoints.
  {
    std::ostringstream out;
    serial::WriteU64(out, 1);
    serial::WriteU32(out, 1);
    serial::WriteVec(out, std::vector<ProfileId>{2}, serial::WriteU32);
    PairRegistry registry;
    std::istringstream in(out.str());
    EXPECT_FALSE(registry.Restore(in));
  }
  // Empty partner list.
  {
    std::ostringstream out;
    serial::WriteU64(out, 1);
    serial::WriteU32(out, 1);
    serial::WriteVec(out, std::vector<ProfileId>{}, serial::WriteU32);
    PairRegistry registry;
    std::istringstream in(out.str());
    EXPECT_FALSE(registry.Restore(in));
  }
  // Duplicate entry id.
  {
    std::ostringstream out;
    serial::WriteU64(out, 2);
    serial::WriteU32(out, 1);
    serial::WriteVec(out, std::vector<ProfileId>{2}, serial::WriteU32);
    serial::WriteU32(out, 1);
    serial::WriteVec(out, std::vector<ProfileId>{3}, serial::WriteU32);
    PairRegistry registry;
    std::istringstream in(out.str());
    EXPECT_FALSE(registry.Restore(in));
  }
  // Truncation.
  {
    std::ostringstream out;
    serial::WriteU64(out, 3);
    PairRegistry registry;
    std::istringstream in(out.str());
    EXPECT_FALSE(registry.Restore(in));
  }
  // Even but one-sided content, naming partners past the last entry
  // id: (1, 9) and (2, 40) have no (9, 1) and (40, 2).
  {
    std::ostringstream out;
    serial::WriteU64(out, 2);
    serial::WriteU32(out, 1);
    serial::WriteVec(out, std::vector<ProfileId>{9}, serial::WriteU32);
    serial::WriteU32(out, 2);
    serial::WriteVec(out, std::vector<ProfileId>{40}, serial::WriteU32);
    PairRegistry registry;
    std::istringstream in(out.str());
    EXPECT_FALSE(registry.Restore(in));
    EXPECT_TRUE(registry.empty());
  }
  // Lists that are not strictly ascending or name the id itself. Each
  // payload is symmetric with an even total, so only the list check
  // can reject it.
  using Entries = std::vector<std::pair<ProfileId, std::vector<ProfileId>>>;
  for (const Entries& entries : {
           Entries{{1, {3, 2}}, {2, {1, 3}}, {3, {1, 2}}},  // descending
           Entries{{1, {1, 2}}, {2, {1, 2}}},               // self-partner
           Entries{{1, {2, 2}}, {2, {1, 1}}}}) {            // duplicate
    std::ostringstream out;
    serial::WriteU64(out, entries.size());
    for (const auto& [id, list] : entries) {
      serial::WriteU32(out, id);
      serial::WriteVec(out, list, serial::WriteU32);
    }
    PairRegistry registry;
    std::istringstream in(out.str());
    EXPECT_FALSE(registry.Restore(in));
  }
  // A non-empty registry refuses to restore over itself.
  {
    PairRegistry donor;
    donor.Add(1, 2);
    std::ostringstream out;
    donor.Snapshot(out);
    PairRegistry registry;
    registry.Add(7, 8);
    std::istringstream in(out.str());
    EXPECT_FALSE(registry.Restore(in));
  }
}

// ---------------------------------------------------------------------------
// Single-pipeline mutations

// Drives the pipeline to exhaustion, recording every positive verdict
// into its cluster index (what the realtime worker does).
void Exhaust(PierPipeline& pipeline, const Matcher& matcher) {
  ParallelMatchExecutor executor(&matcher, 1, nullptr);
  for (;;) {
    const std::vector<Comparison> batch = pipeline.EmitBatch(256);
    if (batch.empty()) break;
    const std::vector<MatchVerdict> verdicts =
        executor.Execute(batch, pipeline.profiles());
    for (size_t i = 0; i < batch.size(); ++i) {
      if (verdicts[i].is_match) pipeline.RecordMatch(batch[i].x, batch[i].y);
    }
  }
}

// Deterministic executed set (see sharded_pipeline_test.cc) plus
// mutation support.
PierOptions MutableEquivalenceOptions(DatasetKind kind) {
  PierOptions options;
  options.kind = kind;
  options.strategy = PierStrategy::kIPes;
  options.exact_executed_filter = true;
  options.blocking.max_block_size = 0;
  options.mutable_stream = true;
  return options;
}

// The small end-to-end scenario every strategy must pass, in the
// default mutable configuration (exact_executed_filter = false): delete
// a cluster member, survivors keep their direct edge; correct a record
// away and its matches dissolve; correct it back and the pair filter
// must have forgotten the old comparisons, or the re-ingested content
// could never re-match (the bug retraction exists to prevent).
void RunDeleteCorrectReplayScenario(PierStrategy strategy) {
  SCOPED_TRACE(std::string("strategy=") + ToString(strategy));
  PierOptions options;
  options.kind = DatasetKind::kDirty;
  options.strategy = strategy;
  options.mutable_stream = true;
  PierPipeline pipeline(options);
  const JaccardMatcher matcher(0.5);

  pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}}),
                   EntityProfile(1, 0, {{"n", "alpha beta"}}),
                   EntityProfile(2, 0, {{"n", "alpha beta gamma"}})});
  pipeline.NotifyStreamEnd();
  Exhaust(pipeline, matcher);
  // Jaccard: 0-1 = 1.0, 0-2 = 1-2 = 2/3 -- one cluster {0, 1, 2}.
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(0), 0u);
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(1), 0u);
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(2), 0u);

  // Delete 1: the 0-2 edge survives, so {0, 2} stays one cluster.
  pipeline.Delete({1});
  EXPECT_TRUE(pipeline.clusters().IsDeleted(1));
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(1), kInvalidProfileId);
  EXPECT_TRUE(pipeline.clusters().ClusterOf(1).members.empty());
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(0), 0u);
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(2), 0u);
  // Idempotent: deleting a dead id again is a no-op.
  pipeline.Delete({1});
  EXPECT_TRUE(pipeline.clusters().IsDeleted(1));

  // Correct 2 to unrelated content: its old matches dissolve.
  pipeline.Update({EntityProfile(2, 0, {{"n", "zeta omega"}})});
  Exhaust(pipeline, matcher);
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(0), 0u);
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(2), 2u);
  EXPECT_EQ(pipeline.clusters().ClusterSizeOf(0), 1u);

  // Correct 2 back: the (0, 2) comparison was retracted from the
  // executed filter, so it re-executes and the cluster re-forms.
  pipeline.Update({EntityProfile(2, 0, {{"n", "alpha beta gamma"}})});
  Exhaust(pipeline, matcher);
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(0), 0u);
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(2), 0u);
  EXPECT_EQ(pipeline.clusters().ClusterSizeOf(0), 2u);

  // Revive the deleted id via a correction: it re-enters as new
  // content and re-matches from scratch.
  pipeline.Update({EntityProfile(1, 0, {{"n", "alpha beta"}})});
  Exhaust(pipeline, matcher);
  EXPECT_FALSE(pipeline.clusters().IsDeleted(1));
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(1), 0u);
  EXPECT_EQ(pipeline.clusters().ClusterSizeOf(0), 3u);
}

TEST(MutablePipelineTest, DeleteCorrectReplayIPcs) {
  RunDeleteCorrectReplayScenario(PierStrategy::kIPcs);
}
TEST(MutablePipelineTest, DeleteCorrectReplayIPbs) {
  RunDeleteCorrectReplayScenario(PierStrategy::kIPbs);
}
TEST(MutablePipelineTest, DeleteCorrectReplayIPes) {
  RunDeleteCorrectReplayScenario(PierStrategy::kIPes);
}
TEST(MutablePipelineTest, DeleteCorrectReplaySperSk) {
  // The frontier strategies must honor retraction too: SPER-SK drops
  // retracted pairs from its reservoir (on this tiny input its exact
  // enumeration path makes the run deterministic).
  RunDeleteCorrectReplayScenario(PierStrategy::kSperSk);
}
TEST(MutablePipelineTest, DeleteCorrectReplayFbPcs) {
  RunDeleteCorrectReplayScenario(PierStrategy::kFbPcs);
}

TEST(MutablePipelineTest, MutationMetrics) {
  obs::MetricsRegistry registry;
  PierOptions options;
  options.kind = DatasetKind::kDirty;
  options.mutable_stream = true;
  options.metrics = &registry;
  PierPipeline pipeline(options);
  const JaccardMatcher matcher(0.5);
  pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}}),
                   EntityProfile(1, 0, {{"n", "alpha beta"}}),
                   EntityProfile(2, 0, {{"n", "alpha beta"}})});
  // Delete before draining: the pending comparisons that touch 2 are
  // retracted (in the prioritizer or, if already emitted, lazily at
  // EmitBatch), so the dead id never reaches the matcher.
  pipeline.Delete({2});
  pipeline.Delete({2});  // idempotent
  pipeline.NotifyStreamEnd();
  Exhaust(pipeline, matcher);
  pipeline.Update({EntityProfile(1, 0, {{"n", "gamma delta"}})});
  Exhaust(pipeline, matcher);
  EXPECT_EQ(registry.GetCounter("pipeline.profiles_deleted")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("pipeline.profiles_updated")->Value(), 1u);
  EXPECT_EQ(pipeline.clusters().ClusterIdOf(1), 1u);
  EXPECT_EQ(pipeline.clusters().ClusterSizeOf(0), 1u);
}

TEST(MutablePipelineTest, MutationsRejectedWhenNotEnabled) {
  PierOptions options;
  options.kind = DatasetKind::kDirty;
  ASSERT_FALSE(options.mutable_stream);
  PierPipeline pipeline(options);
  pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}})});
  EXPECT_DEATH(pipeline.Delete({0}), "mutable");
}

// Randomized add/delete/correct interleavings against a from-scratch
// oracle: whatever order the mutations arrived in, the final clusters
// must equal those of a fresh pipeline fed the end-state stream --
// surviving records with their final content, deleted records replaced
// by empty placeholders (ids must stay dense; a placeholder has no
// tokens, so it blocks with nothing and stays a singleton).
TEST(MutablePipelineTest, RandomizedInterleavingsMatchFromScratchOracle) {
  CensusOptions data_options;
  data_options.num_records = 160;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.4);
  const PierOptions options = MutableEquivalenceOptions(d.kind);
  std::mt19937 rng(20260807);

  PierPipeline pipeline(options);
  ParallelMatchExecutor executor(&matcher, 1, nullptr);
  std::vector<EntityProfile> current = d.profiles;  // content by id
  std::set<ProfileId> deleted;
  size_t ingested = 0;
  for (const auto& inc : SplitIntoIncrements(d, 16)) {
    std::vector<EntityProfile> profiles(
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    pipeline.Ingest(std::move(profiles));
    ingested = inc.end;
    // Partially drain so mutations hit mid-flight prioritizer state
    // (pending comparisons, executed-filter entries, cluster edges).
    const std::vector<Comparison> batch = pipeline.EmitBatch(64);
    if (!batch.empty()) {
      const std::vector<MatchVerdict> verdicts =
          executor.Execute(batch, pipeline.profiles());
      for (size_t i = 0; i < batch.size(); ++i) {
        if (verdicts[i].is_match) {
          pipeline.RecordMatch(batch[i].x, batch[i].y);
        }
      }
    }
    for (int m = 0; m < 3; ++m) {
      const ProfileId id = static_cast<ProfileId>(rng() % ingested);
      switch (rng() % 3) {
        case 0:
          pipeline.Delete({id});  // idempotent on already-dead ids
          deleted.insert(id);
          break;
        case 1: {
          // Correction: splice in another record's attributes (which
          // may revive a previously deleted id).
          EntityProfile replacement =
              d.profiles[(id * 7 + 13) % d.profiles.size()];
          replacement.id = id;
          current[id] = replacement;
          deleted.erase(id);
          pipeline.Update({replacement});
          break;
        }
        default: {
          // Correction back to the original content.
          EntityProfile original = d.profiles[id];
          current[id] = original;
          deleted.erase(id);
          pipeline.Update({std::move(original)});
          break;
        }
      }
    }
  }
  ASSERT_FALSE(deleted.empty());
  pipeline.NotifyStreamEnd();
  Exhaust(pipeline, matcher);

  // From-scratch oracle over the end-state stream.
  PierPipeline oracle(options);
  std::vector<EntityProfile> stream;
  stream.reserve(d.profiles.size());
  for (ProfileId id = 0; id < d.profiles.size(); ++id) {
    if (deleted.count(id) != 0) {
      stream.push_back(EntityProfile(id, d.profiles[id].source, {}));
    } else {
      stream.push_back(current[id]);
    }
  }
  oracle.Ingest(std::move(stream));
  oracle.NotifyStreamEnd();
  Exhaust(oracle, matcher);

  for (ProfileId id = 0; id < d.profiles.size(); ++id) {
    if (deleted.count(id) != 0) {
      EXPECT_TRUE(pipeline.clusters().IsDeleted(id)) << "id=" << id;
      EXPECT_EQ(pipeline.clusters().ClusterIdOf(id), kInvalidProfileId);
    } else {
      EXPECT_EQ(pipeline.clusters().ClusterIdOf(id),
                oracle.clusters().ClusterIdOf(id))
          << "id=" << id;
      EXPECT_EQ(pipeline.clusters().ClusterOf(id).members,
                oracle.clusters().ClusterOf(id).members)
          << "id=" << id;
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded delete-then-replay equivalence (the tentpole oracle)

struct StreamOp {
  enum Kind { kIngest, kDelete, kUpdate } kind = kIngest;
  std::vector<EntityProfile> profiles;  // kIngest / kUpdate
  std::vector<ProfileId> ids;           // kDelete
};

// Builds a deterministic interleaved script of ingests, deletes, and
// corrections over `d`, and reports the end state: which ids are
// deleted at the end, and each survivor's final content.
std::vector<StreamOp> BuildMutationScript(
    const Dataset& d, size_t num_increments,
    std::set<ProfileId>* final_deleted,
    std::vector<EntityProfile>* final_content) {
  std::mt19937 rng(777);
  std::vector<StreamOp> ops;
  *final_content = d.profiles;
  final_deleted->clear();
  const auto increments = SplitIntoIncrements(d, num_increments);
  for (size_t c = 0; c < increments.size(); ++c) {
    StreamOp ingest;
    ingest.kind = StreamOp::kIngest;
    ingest.profiles.assign(
        d.profiles.begin() + static_cast<ptrdiff_t>(increments[c].begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(increments[c].end));
    ops.push_back(std::move(ingest));
    const size_t ingested = increments[c].end;
    if (c == 0) continue;  // mutate only ids from earlier increments
    for (int m = 0; m < 2; ++m) {
      const ProfileId id = static_cast<ProfileId>(rng() % ingested);
      if (rng() % 2 == 0) {
        StreamOp op;
        op.kind = StreamOp::kDelete;
        op.ids = {id};
        ops.push_back(std::move(op));
        final_deleted->insert(id);
      } else {
        EntityProfile replacement =
            d.profiles[(id * 11 + 3) % d.profiles.size()];
        replacement.id = id;
        (*final_content)[id] = replacement;
        final_deleted->erase(id);
        StreamOp op;
        op.kind = StreamOp::kUpdate;
        op.profiles = {std::move(replacement)};
        ops.push_back(std::move(op));
      }
    }
  }
  return ops;
}

void ApplyOps(ShardedPipeline& pipeline, const std::vector<StreamOp>& ops,
              size_t begin) {
  for (size_t i = begin; i < ops.size(); ++i) {
    const StreamOp& op = ops[i];
    switch (op.kind) {
      case StreamOp::kIngest:
        ASSERT_TRUE(pipeline.Ingest(op.profiles)) << "op " << i;
        break;
      case StreamOp::kDelete:
        ASSERT_TRUE(pipeline.Delete(op.ids)) << "op " << i;
        break;
      case StreamOp::kUpdate:
        ASSERT_TRUE(pipeline.Update(op.profiles)) << "op " << i;
        break;
    }
  }
}

ShardedOptions MutableShardedOptions(DatasetKind kind, size_t shard_count) {
  ShardedOptions options;
  options.pipeline = MutableEquivalenceOptions(kind);
  options.shard_count = shard_count;
  options.queue_capacity = 4;  // small: exercises backpressure
  return options;
}

TEST(MutableShardedTest, DeleteThenReplayEquivalenceAcrossShardCounts) {
  CensusOptions data_options;
  data_options.num_records = 220;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.4);

  std::set<ProfileId> deleted;
  std::vector<EntityProfile> final_content;
  const std::vector<StreamOp> ops =
      BuildMutationScript(d, 11, &deleted, &final_content);
  ASSERT_FALSE(deleted.empty());

  // The oracle: a run whose stream never contained the deleted
  // records (placeholders keep ids dense) and always carried the
  // corrected content.
  std::map<ProfileId, ProfileId> expected;
  {
    ShardedPipeline oracle(MutableShardedOptions(d.kind, 1), &matcher,
                           [](ProfileId, ProfileId) {});
    std::vector<EntityProfile> stream;
    for (ProfileId id = 0; id < d.profiles.size(); ++id) {
      if (deleted.count(id) != 0) {
        stream.push_back(EntityProfile(id, d.profiles[id].source, {}));
      } else {
        stream.push_back(final_content[id]);
      }
    }
    ASSERT_TRUE(oracle.Ingest(std::move(stream)));
    oracle.NotifyStreamEnd();
    oracle.Drain();
    for (ProfileId id = 0; id < d.profiles.size(); ++id) {
      expected[id] = oracle.ClusterIdOf(id);
    }
  }

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedPipeline pipeline(MutableShardedOptions(d.kind, shards), &matcher,
                             [](ProfileId, ProfileId) {});
    ApplyOps(pipeline, ops, 0);
    pipeline.NotifyStreamEnd();
    pipeline.Drain();
    EXPECT_EQ(pipeline.clusters().universe_size(), d.profiles.size());
    for (ProfileId id = 0; id < d.profiles.size(); ++id) {
      if (deleted.count(id) != 0) {
        EXPECT_TRUE(pipeline.clusters().IsDeleted(id)) << "id=" << id;
        EXPECT_EQ(pipeline.ClusterIdOf(id), kInvalidProfileId) << "id=" << id;
      } else {
        EXPECT_EQ(pipeline.ClusterIdOf(id), expected[id]) << "id=" << id;
      }
    }
  }
}

// Checkpoint/resume with mutations, in the default mutable
// configuration, at 1, 2 and 4 shards: the snapshot must carry the
// pair registries bit-exactly, so a resumed run converges to the same
// clusters as the uninterrupted one.
TEST(MutableShardedTest, CheckpointResumeWithMutationsMatchesUninterrupted) {
  CensusOptions data_options;
  data_options.num_records = 150;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.4);

  std::set<ProfileId> deleted;
  std::vector<EntityProfile> final_content;
  const std::vector<StreamOp> ops =
      BuildMutationScript(d, 8, &deleted, &final_content);

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto make_options = [&] {
      ShardedOptions options = MutableShardedOptions(d.kind, shards);
      // Exercise the default mutable-stream configuration, not the
      // exact-set ablation.
      options.pipeline.exact_executed_filter = false;
      return options;
    };

    // Uninterrupted reference.
    std::map<ProfileId, ProfileId> expected;
    {
      ShardedPipeline pipeline(make_options(), &matcher,
                               [](ProfileId, ProfileId) {});
      ApplyOps(pipeline, ops, 0);
      pipeline.NotifyStreamEnd();
      pipeline.Drain();
      for (ProfileId id = 0; id < d.profiles.size(); ++id) {
        expected[id] = pipeline.ClusterIdOf(id);
      }
    }

    const std::string dir = (std::filesystem::temp_directory_path() /
                             ("pier_mutable_resume_test_" +
                              std::to_string(shards)))
                                .string();
    std::filesystem::remove_all(dir);
    {
      ShardedPipeline pipeline(make_options(), &matcher,
                               [](ProfileId, ProfileId) {});
      pipeline.EnableCheckpoints(dir, /*every=*/3, /*keep=*/2);
      // Apply a prefix that includes deletes and corrections, then die.
      ApplyOps(pipeline, ops, 0);
    }
    auto latest = persist::CheckpointManager::FindLatest(dir);
    ASSERT_TRUE(latest.has_value());

    ShardedPipeline resumed(make_options(), &matcher,
                            [](ProfileId, ProfileId) {});
    std::ifstream in(*latest, std::ios::binary);
    std::string error;
    ASSERT_TRUE(resumed.RestoreFromSnapshot(in, &error)) << error;
    // Every op (ingest, delete, update) bumps the ingest counter, so
    // the counter doubles as the replay position in the op log.
    const uint64_t applied = resumed.ingests();
    ASSERT_GT(applied, 0u);
    ASSERT_LE(applied, ops.size());
    ApplyOps(resumed, ops, applied);
    resumed.NotifyStreamEnd();
    resumed.Drain();

    for (ProfileId id = 0; id < d.profiles.size(); ++id) {
      EXPECT_EQ(resumed.ClusterIdOf(id), expected[id]) << "id=" << id;
      EXPECT_EQ(resumed.clusters().IsDeleted(id), deleted.count(id) != 0)
          << "id=" << id;
    }
    std::filesystem::remove_all(dir);
  }
}

// Every shard holds every profile id, yet a sharded mutation counts
// each profile once: each user call reaches every shard in one call,
// and shard 0 alone counts the per-profile pipeline.* counters. A
// correction is an update, never a deletion.
TEST(MutableShardedTest, MutationCountersCountEachProfileOnce) {
#ifdef PIER_OBS_DISABLED
  GTEST_SKIP() << "metrics are compiled out";
#endif
  obs::MetricsRegistry registry;
  ShardedOptions options = MutableShardedOptions(DatasetKind::kDirty, 2);
  options.pipeline.metrics = &registry;
  const JaccardMatcher matcher(0.5);
  ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
  std::vector<EntityProfile> profiles;
  for (ProfileId id = 0; id < 6; ++id) {
    profiles.push_back(EntityProfile(
        id, 0, {{"n", "alpha beta gamma " + std::to_string(id % 2)}}));
  }
  ASSERT_TRUE(pipeline.Ingest(profiles));
  ASSERT_TRUE(pipeline.Delete({1, 2, 2}));  // a repeated id counts once
  ASSERT_TRUE(pipeline.Delete({1}));        // already deleted
  // Two corrections of live profiles and one of a deleted profile.
  ASSERT_TRUE(pipeline.Update({EntityProfile(3, 0, {{"n", "delta"}}),
                               EntityProfile(4, 0, {{"n", "delta"}})}));
  ASSERT_TRUE(pipeline.Update({EntityProfile(1, 0, {{"n", "alpha"}})}));
  pipeline.NotifyStreamEnd();
  pipeline.Drain();
  const auto counter = [&](const char* name) {
    return registry.GetCounter(name)->Value();
  };
  EXPECT_EQ(counter("pipeline.profiles_ingested"), 6u);
  EXPECT_EQ(counter("pipeline.profiles_deleted"), 2u);
  EXPECT_EQ(counter("pipeline.profiles_updated"), 3u);
  // One per user call: an ingest, two deletes, two updates.
  EXPECT_EQ(counter("pipeline.increments"), 5u);
  EXPECT_EQ(counter("realtime.deletes"), 2u);
  EXPECT_EQ(counter("realtime.updates"), 3u);
}

// ---------------------------------------------------------------------------
// Concurrency (TSan): deletes and corrections racing cluster queries

TEST(MutableClusterIndexTest, ConcurrentRemoveReviveVsQueryStress) {
  serve::ClusterIndex index;
  index.EnableRetraction();
  index.TrackUpTo(256);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t checksum = 0;
    while (!stop.load()) {
      for (ProfileId id = 0; id < 256; id += 3) {
        checksum += index.ClusterIdOf(id) == kInvalidProfileId
                        ? 1
                        : index.ClusterIdOf(id);
        checksum += index.ClusterOf(id).members.size();
        checksum += index.IsDeleted(id) ? 1 : 0;
        checksum += index.ClusterSizeOf(id);
      }
    }
    EXPECT_GE(checksum, 0u);
  });
  std::mt19937 rng(99);
  std::set<ProfileId> dead;
  for (int wave = 0; wave < 60; ++wave) {
    for (int i = 0; i < 8; ++i) {
      const ProfileId a = static_cast<ProfileId>(rng() % 256);
      const ProfileId b = static_cast<ProfileId>(rng() % 256);
      if (a == b || dead.count(a) != 0 || dead.count(b) != 0) continue;
      index.AddMatch(a, b);
    }
    for (int i = 0; i < 3; ++i) {
      const ProfileId id = static_cast<ProfileId>(rng() % 256);
      if (dead.count(id) != 0) continue;
      if (index.RemoveProfile(id)) dead.insert(id);
    }
    if (wave % 4 == 0 && !dead.empty()) {
      const ProfileId id = *dead.begin();
      index.ReviveAsSingleton(id);
      dead.erase(id);
    }
  }
  stop.store(true);
  reader.join();
  // Quiescent consistency: dead ids report absence, live ids resolve
  // to a live canonical member no larger than themselves.
  for (ProfileId id = 0; id < 256; ++id) {
    if (dead.count(id) != 0) {
      EXPECT_TRUE(index.IsDeleted(id));
      EXPECT_EQ(index.ClusterIdOf(id), kInvalidProfileId);
      EXPECT_TRUE(index.ClusterOf(id).members.empty());
    } else {
      const ProfileId root = index.ClusterIdOf(id);
      EXPECT_LE(root, id);
      EXPECT_EQ(dead.count(root), 0u);
    }
  }
}

TEST(MutableShardedTest, ConcurrentMutationsVsClusterQueries) {
  CensusOptions data_options;
  data_options.num_records = 240;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.4);
  ShardedOptions options;
  options.pipeline.kind = d.kind;
  options.pipeline.strategy = PierStrategy::kIPes;
  options.pipeline.mutable_stream = true;
  options.shard_count = 2;
  options.queue_capacity = 2;
  ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});

  std::atomic<bool> stop_queries{false};
  std::thread querier([&] {
    uint64_t checksum = 0;
    while (!stop_queries.load()) {
      const size_t universe = pipeline.clusters().universe_size();
      for (ProfileId id = 0; id < universe; id += 5) {
        const ProfileId root = pipeline.ClusterIdOf(id);
        checksum += root == kInvalidProfileId ? 1 : root;
        checksum += pipeline.ClusterOf(id).members.size();
        checksum += pipeline.clusters().IsDeleted(id) ? 1 : 0;
      }
    }
    EXPECT_GE(checksum, 0u);
  });

  std::set<ProfileId> deleted;
  const auto increments = SplitIntoIncrements(d, 12);
  for (size_t c = 0; c < increments.size(); ++c) {
    std::vector<EntityProfile> profiles(
        d.profiles.begin() + static_cast<ptrdiff_t>(increments[c].begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(increments[c].end));
    ASSERT_TRUE(pipeline.Ingest(std::move(profiles)));
    if (c == 0) continue;
    // Delete and correct mid-stream while the workers are busy and
    // the querier hammers the serving index.
    const ProfileId victim = static_cast<ProfileId>(increments[c - 1].begin);
    ASSERT_TRUE(pipeline.Delete({victim}));
    deleted.insert(victim);
    if (c % 2 == 0) {
      const ProfileId corrected =
          static_cast<ProfileId>(increments[c - 1].begin + 1);
      EntityProfile replacement =
          d.profiles[(corrected + 29) % d.profiles.size()];
      replacement.id = corrected;
      ASSERT_TRUE(pipeline.Update({std::move(replacement)}));
      deleted.erase(corrected);
    }
  }
  pipeline.NotifyStreamEnd();
  pipeline.Drain();
  stop_queries.store(true);
  querier.join();

  EXPECT_EQ(pipeline.clusters().universe_size(), d.profiles.size());
  for (const ProfileId id : deleted) {
    EXPECT_TRUE(pipeline.clusters().IsDeleted(id)) << "id=" << id;
    EXPECT_EQ(pipeline.ClusterIdOf(id), kInvalidProfileId) << "id=" << id;
  }
}

}  // namespace
}  // namespace pier
