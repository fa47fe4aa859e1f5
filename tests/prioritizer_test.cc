// Tests for the three PIER prioritizers (I-PCS, I-PBS, I-PES) on
// hand-crafted block structures: emission order, global index
// maintenance across increments (globality), dedup, fallback
// scanning, and bounded-memory behaviour.

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/block_scanner.h"
#include "core/i_pbs.h"
#include "core/i_pcs.h"
#include "core/i_pes.h"
#include "core/prioritizer.h"
#include "util/bounded_priority_queue.h"
#include "util/rng.h"

namespace pier {
namespace {

// Harness that mimics the pipeline's ingest for hand-specified token
// sets: profiles are blocked before the prioritizer update, exactly as
// PierPipeline::Ingest does.
class PrioritizerFixture : public ::testing::Test {
 protected:
  explicit PrioritizerFixture(DatasetKind kind = DatasetKind::kDirty)
      : blocks_(kind) {}

  std::vector<ProfileId> AddIncrement(
      std::vector<std::pair<SourceId, std::vector<TokenId>>> specs) {
    std::vector<ProfileId> delta;
    for (auto& [source, tokens] : specs) {
      EntityProfile p(static_cast<ProfileId>(profiles_.size()), source, {});
      std::sort(tokens.begin(), tokens.end());
      p.set_tokens(std::move(tokens));
      blocks_.AddProfile(p);
      delta.push_back(p.id);
      profiles_.Add(std::move(p));
    }
    return delta;
  }

  PrioritizerContext Ctx() { return PrioritizerContext{&blocks_, &profiles_}; }

  static std::vector<Comparison> Drain(IncrementalPrioritizer& p,
                                       size_t limit = 1000) {
    std::vector<Comparison> out;
    Comparison c;
    while (out.size() < limit && p.Dequeue(&c)) out.push_back(c);
    return out;
  }

  BlockCollection blocks_;
  ProfileStore profiles_;
  PrioritizerOptions options_;
};

// ---------------------------------------------------------------------------
// I-PCS
// ---------------------------------------------------------------------------

class IPcsTest : public PrioritizerFixture {};

TEST_F(IPcsTest, EmitsHighestWeightFirst) {
  // p0,p1 share two tokens (CBS 2); p2 shares one token with each.
  auto delta = AddIncrement({{0, {0, 1}}, {0, {0, 1}}, {0, {1, 2}}});
  IPcs pcs(Ctx(), options_);
  pcs.UpdateCmpIndex(delta);
  const auto emitted = Drain(pcs);
  ASSERT_FALSE(emitted.empty());
  EXPECT_EQ(PairKey(emitted[0].x, emitted[0].y), PairKey(0, 1));
  EXPECT_DOUBLE_EQ(emitted[0].weight, 2.0);
  for (size_t i = 1; i < emitted.size(); ++i) {
    EXPECT_LE(emitted[i].weight, emitted[i - 1].weight);
  }
}

TEST_F(IPcsTest, GlobalityAcrossIncrements) {
  // Increment 1: a strong pair. Dequeue nothing yet. Increment 2: a
  // weak pair. The strong increment-1 pair must still come out first.
  IPcs pcs(Ctx(), options_);
  pcs.UpdateCmpIndex(AddIncrement({{0, {0, 1, 2}}, {0, {0, 1, 2}}}));
  pcs.UpdateCmpIndex(AddIncrement({{0, {5, 2}}}));
  Comparison c;
  ASSERT_TRUE(pcs.Dequeue(&c));
  EXPECT_EQ(PairKey(c.x, c.y), PairKey(0, 1));
}

TEST_F(IPcsTest, EachPairGeneratedOnce) {
  auto delta = AddIncrement({{0, {0}}, {0, {0}}, {0, {0}}});
  IPcs pcs(Ctx(), options_);
  pcs.UpdateCmpIndex(delta);
  const auto emitted = Drain(pcs);
  std::set<uint64_t> keys;
  for (const auto& c : emitted) {
    EXPECT_TRUE(keys.insert(c.Key()).second) << c.x << "," << c.y;
  }
  EXPECT_EQ(keys.size(), 3u);  // C(3,2)
}

TEST_F(IPcsTest, EmptyTickWithEmptyIndexFallsBackToScanner) {
  auto delta = AddIncrement({{0, {0}}, {0, {0}}});
  IPcs pcs(Ctx(), options_);
  pcs.UpdateCmpIndex(delta);
  Drain(pcs);
  EXPECT_TRUE(pcs.Empty());
  // Idle tick: the scanner re-offers block comparisons (the pipeline's
  // executed filter suppresses re-matching downstream).
  pcs.UpdateCmpIndex({});
  EXPECT_FALSE(pcs.Empty());
  const auto again = Drain(pcs);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(PairKey(again[0].x, again[0].y), PairKey(0, 1));
}

TEST_F(IPcsTest, BoundedIndexKeepsBestComparisons) {
  options_.cmp_index_capacity = 1;
  IPcs pcs(Ctx(), options_);
  // Two pairs: (0,1) CBS 2 via tokens {0,1}; (2,3) CBS 1 via token 5.
  pcs.UpdateCmpIndex(AddIncrement(
      {{0, {0, 1}}, {0, {0, 1}}, {0, {5}}, {0, {5}}}));
  const auto emitted = Drain(pcs);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_DOUBLE_EQ(emitted[0].weight, 2.0);
}

TEST_F(IPcsTest, IWnpPrunesWeakNeighborhoodComparisons) {
  // p4 shares 3 tokens with p0 but only 1 with each of p1..p3: the
  // below-mean neighbours are pruned from p4's candidate list.
  AddIncrement({{0, {0, 1, 2}}, {0, {3}}, {0, {4}}, {0, {5}}});
  IPcs pcs(Ctx(), options_);
  auto delta = AddIncrement({{0, {0, 1, 2, 3, 4, 5}}});
  pcs.UpdateCmpIndex(delta);
  const auto emitted = Drain(pcs);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(PairKey(emitted[0].x, emitted[0].y), PairKey(0, 4));
}

// ---------------------------------------------------------------------------
// I-PBS
// ---------------------------------------------------------------------------

class IPbsTest : public PrioritizerFixture {};

TEST_F(IPbsTest, SchedulesSmallestBlockFirst) {
  // Token 0: block of 2; token 1: block of 4.
  auto delta = AddIncrement({{0, {0}},
                             {0, {0}},
                             {0, {1}},
                             {0, {1}},
                             {0, {1}},
                             {0, {1}}});
  IPbs pbs(Ctx(), options_);
  pbs.UpdateCmpIndex(delta);
  Comparison c;
  ASSERT_TRUE(pbs.Dequeue(&c));
  EXPECT_EQ(PairKey(c.x, c.y), PairKey(0, 1));
  EXPECT_EQ(c.block_size, 2u);
}

TEST_F(IPbsTest, OneBlockPerUpdate) {
  auto delta = AddIncrement({{0, {0}}, {0, {0}}, {0, {1}}, {0, {1}}});
  IPbs pbs(Ctx(), options_);
  pbs.UpdateCmpIndex(delta);
  EXPECT_EQ(pbs.NumPendingBlocks(), 1u);  // one of the two scheduled
  const auto first = Drain(pbs);
  EXPECT_EQ(first.size(), 1u);
  // Next (empty) update schedules the remaining block.
  pbs.UpdateCmpIndex({});
  const auto second = Drain(pbs);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_NE(first[0].Key(), second[0].Key());
  EXPECT_EQ(pbs.NumPendingBlocks(), 0u);
}

TEST_F(IPbsTest, ComparisonFilterSuppressesRedundantPairs) {
  // p0,p1 share both tokens: the pair appears in two blocks but must
  // be scheduled once.
  auto delta = AddIncrement({{0, {0, 1}}, {0, {0, 1}}});
  IPbs pbs(Ctx(), options_);
  pbs.UpdateCmpIndex(delta);
  pbs.UpdateCmpIndex({});
  pbs.UpdateCmpIndex({});
  const auto emitted = Drain(pbs);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(PairKey(emitted[0].x, emitted[0].y), PairKey(0, 1));
}

TEST_F(IPbsTest, SmallBlockPreemptsAndWeightOrdersWithinBlock) {
  // Token 9 blocks p0..p2 (size 3); p1,p2 additionally share token 5
  // (size 2): the token-5 pair is scheduled and emitted first.
  auto delta = AddIncrement({{0, {9}}, {0, {9, 5}}, {0, {9, 5}}});
  IPbs pbs(Ctx(), options_);
  pbs.UpdateCmpIndex(delta);
  auto first = Drain(pbs);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(PairKey(first[0].x, first[0].y), PairKey(1, 2));
  EXPECT_EQ(first[0].block_size, 2u);
  // Once drained, the next update schedules the bigger token-9 block;
  // the (1,2) pair is suppressed by the comparison filter.
  pbs.UpdateCmpIndex({});
  const auto second = Drain(pbs);
  ASSERT_EQ(second.size(), 2u);
  std::set<uint64_t> keys;
  for (const auto& c : second) {
    keys.insert(c.Key());
    EXPECT_EQ(c.block_size, 3u);
  }
  EXPECT_TRUE(keys.count(PairKey(0, 1)));
  EXPECT_TRUE(keys.count(PairKey(0, 2)));
}

TEST_F(IPbsTest, CrossIncrementComparisonsGenerated) {
  IPbs pbs(Ctx(), options_);
  pbs.UpdateCmpIndex(AddIncrement({{0, {0}}}));
  Drain(pbs);
  pbs.UpdateCmpIndex(AddIncrement({{0, {0}}}));
  const auto emitted = Drain(pbs);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(PairKey(emitted[0].x, emitted[0].y), PairKey(0, 1));
}

TEST_F(IPbsTest, CleanCleanOnlyCrossSource) {
  BlockCollection cc_blocks(DatasetKind::kCleanClean);
  ProfileStore cc_profiles;
  std::vector<ProfileId> delta;
  auto add = [&](SourceId s, std::vector<TokenId> tokens) {
    EntityProfile p(static_cast<ProfileId>(cc_profiles.size()), s, {});
    p.set_tokens(std::move(tokens));
    cc_blocks.AddProfile(p);
    delta.push_back(p.id);
    cc_profiles.Add(std::move(p));
  };
  add(0, {0});
  add(0, {0});
  add(1, {0});
  IPbs pbs(PrioritizerContext{&cc_blocks, &cc_profiles}, options_);
  pbs.UpdateCmpIndex(delta);
  pbs.UpdateCmpIndex({});
  const auto emitted = Drain(pbs);
  ASSERT_EQ(emitted.size(), 2u);  // (0,2) and (1,2); never (0,1)
  for (const auto& c : emitted) {
    EXPECT_NE(cc_profiles.Get(c.x).source, cc_profiles.Get(c.y).source);
  }
}

// Retraction compacts the CmpIndex in place. Two I-PBS instances see
// the same single block of 20 profiles (190 pairs, scheduled at once);
// one retracts profiles 5 and 12. Its dequeue sequence must be the
// other's with exactly the pairs of 5 and 12 left out.
TEST_F(IPbsTest, OnRetractDropsExactlyTheRetractedPairs) {
  std::vector<std::pair<SourceId, std::vector<TokenId>>> specs(20, {0, {0}});
  const auto delta = AddIncrement(std::move(specs));
  options_.mutable_stream = true;
  IPbs reference(Ctx(), options_);
  IPbs retracted(Ctx(), options_);
  reference.UpdateCmpIndex(delta);
  retracted.UpdateCmpIndex(delta);
  retracted.OnRetract(5);
  retracted.OnRetract(12);

  const auto involves_retracted = [](const Comparison& c) {
    return c.x == 5 || c.y == 5 || c.x == 12 || c.y == 12;
  };
  std::vector<Comparison> expected;
  for (const Comparison& c : Drain(reference)) {
    if (!involves_retracted(c)) expected.push_back(c);
  }
  const std::vector<Comparison> actual = Drain(retracted);
  ASSERT_EQ(actual.size(), 190u - 37u);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].Key(), expected[i].Key()) << i;
  }
}

// The same at the index level, against the implementation the in-place
// compaction replaced: copy the survivors, Clear, re-Push each. Block
// sizes and weights collide on purpose, so the Key() tie break decides
// many pops; later pushes meet the compacted heap too.
TEST(IPbsCmpIndexTest, InPlaceCompactionDequeuesLikeRebuild) {
  using Index = BoundedPriorityQueue<Comparison, CompareByBlockThenWeight>;
  Rng rng(7);
  const auto random_comparison = [&] {
    for (;;) {
      const auto x = static_cast<ProfileId>(rng.UniformInt(0, 99));
      const auto y = static_cast<ProfileId>(rng.UniformInt(0, 99));
      if (x == y) continue;
      return Comparison(x, y, 0.25 * static_cast<double>(rng.UniformInt(1, 3)),
                        static_cast<uint32_t>(rng.UniformInt(2, 5)));
    }
  };
  Index compacted(400);
  for (int i = 0; i < 1500; ++i) compacted.PushBounded(random_comparison());
  Index rebuilt = compacted;
  for (const ProfileId id : {3u, 17u, 42u, 99u}) {
    const auto involves = [id](const Comparison& c) {
      return c.x == id || c.y == id;
    };
    const size_t before = rebuilt.size();
    std::vector<Comparison> kept;
    for (const Comparison& c : rebuilt.data()) {
      if (!involves(c)) kept.push_back(c);
    }
    rebuilt.Clear();
    for (const Comparison& c : kept) rebuilt.Push(c);
    EXPECT_EQ(compacted.EraseIf(involves), before - kept.size());
    ASSERT_EQ(compacted.size(), rebuilt.size());
    for (int i = 0; i < 20; ++i) {
      const Comparison c = random_comparison();
      EXPECT_EQ(compacted.PushBounded(c), rebuilt.PushBounded(c));
    }
  }
  while (!rebuilt.empty()) {
    ASSERT_FALSE(compacted.empty());
    const Comparison a = compacted.PopMax();
    const Comparison b = rebuilt.PopMax();
    ASSERT_EQ(a.Key(), b.Key());
    ASSERT_EQ(a.weight, b.weight);
    ASSERT_EQ(a.block_size, b.block_size);
  }
  EXPECT_TRUE(compacted.empty());
}

// ---------------------------------------------------------------------------
// I-PES
// ---------------------------------------------------------------------------

class IPesTest : public PrioritizerFixture {};

TEST_F(IPesTest, EmitsBestEntityComparisonFirst) {
  auto delta = AddIncrement({{0, {0, 1}}, {0, {0, 1}}, {0, {1, 2}}});
  IPes pes(Ctx(), options_);
  pes.UpdateCmpIndex(delta);
  Comparison c;
  ASSERT_TRUE(pes.Dequeue(&c));
  EXPECT_EQ(PairKey(c.x, c.y), PairKey(0, 1));  // CBS 2 beats CBS 1
}

TEST_F(IPesTest, DrainsEverythingItAccepted) {
  auto delta = AddIncrement({{0, {0}}, {0, {0}}, {0, {1}}, {0, {1}}});
  IPes pes(Ctx(), options_);
  pes.UpdateCmpIndex(delta);
  const auto emitted = Drain(pes);
  EXPECT_EQ(emitted.size(), 2u);
  EXPECT_TRUE(pes.Empty());
}

TEST_F(IPesTest, GlobalityAcrossIncrements) {
  IPes pes(Ctx(), options_);
  pes.UpdateCmpIndex(AddIncrement({{0, {0, 1, 2}}, {0, {0, 1, 2}}}));
  // New increment with weaker pairs must not displace the old best.
  pes.UpdateCmpIndex(AddIncrement({{0, {7, 2}}}));
  Comparison c;
  ASSERT_TRUE(pes.Dequeue(&c));
  EXPECT_EQ(PairKey(c.x, c.y), PairKey(0, 1));
}

TEST_F(IPesTest, EntityQueueRefillsFromEntityIndex) {
  // Bound the EntityQueue to one ref: the second entity's comparison
  // can only surface through a refill from E_PQ.
  options_.entity_queue_capacity = 1;
  IPes pes(Ctx(), options_);
  pes.UpdateCmpIndex(
      AddIncrement({{0, {0}}, {0, {0}}, {0, {5}}, {0, {5}}}));
  const auto emitted = Drain(pes);
  EXPECT_EQ(emitted.size(), 2u);
  EXPECT_GE(pes.NumEntityQueueRefills(), 1u);
  EXPECT_TRUE(pes.Empty());
}

TEST_F(IPesTest, AllPairsEventuallyEmitted) {
  auto delta = AddIncrement(
      {{0, {0, 1, 2}}, {0, {0, 1, 2}}, {0, {0, 1, 2}}, {0, {0, 1, 2}}});
  IPes pes(Ctx(), options_);
  pes.UpdateCmpIndex(delta);
  const auto emitted = Drain(pes);
  std::set<uint64_t> keys;
  for (const auto& c : emitted) keys.insert(c.Key());
  EXPECT_EQ(keys.size(), 6u);  // C(4,2), all CBS 3
  EXPECT_TRUE(pes.Empty());
}

TEST_F(IPesTest, TracksGlobalMeanWeight) {
  auto delta = AddIncrement({{0, {0, 1}}, {0, {0, 1}}});
  IPes pes(Ctx(), options_);
  EXPECT_DOUBLE_EQ(pes.GlobalMeanWeight(), 0.0);
  pes.UpdateCmpIndex(delta);
  EXPECT_DOUBLE_EQ(pes.GlobalMeanWeight(), 2.0);  // single CBS-2 pair
}

TEST_F(IPesTest, FallbackScannerOnIdleTick) {
  auto delta = AddIncrement({{0, {0}}, {0, {0}}});
  IPes pes(Ctx(), options_);
  pes.UpdateCmpIndex(delta);
  Drain(pes);
  EXPECT_TRUE(pes.Empty());
  pes.UpdateCmpIndex({});
  EXPECT_FALSE(pes.Empty());
}

TEST_F(IPesTest, PerEntityCapacityBoundsMemory) {
  options_.per_entity_capacity = 2;
  IPes pes(Ctx(), options_);
  // p0 shares a distinct pair of tokens with each of 6 others, at
  // varying strength; its entity queue holds at most 2.
  std::vector<std::pair<SourceId, std::vector<TokenId>>> specs;
  std::vector<TokenId> all;
  for (TokenId t = 0; t < 12; ++t) all.push_back(t);
  specs.push_back({0, all});
  for (int i = 0; i < 6; ++i) {
    specs.push_back({0, {static_cast<TokenId>(2 * i),
                         static_cast<TokenId>(2 * i + 1)}});
  }
  pes.UpdateCmpIndex(AddIncrement(specs));
  EXPECT_LE(pes.NumTrackedEntities(), 7u);
  const auto emitted = Drain(pes);
  // Everything still drains (overflow demoted to PQ), nothing repeats.
  std::set<uint64_t> keys;
  for (const auto& c : emitted) EXPECT_TRUE(keys.insert(c.Key()).second);
}

TEST_F(IPesTest, DrainedEntitiesArePrunedFromIndex) {
  IPes pes(Ctx(), options_);
  pes.UpdateCmpIndex(
      AddIncrement({{0, {0}}, {0, {0}}, {0, {5}}, {0, {5}}}));
  EXPECT_GT(pes.NumTrackedEntities(), 0u);
  Drain(pes);
  // Fully drained: no entity may keep an (empty) queue alive.
  EXPECT_EQ(pes.NumTrackedEntities(), 0u);
}

// ---------------------------------------------------------------------------
// BlockScanner
// ---------------------------------------------------------------------------

class BlockScannerTest : public PrioritizerFixture {};

TEST_F(BlockScannerTest, ScansSmallestBlockFirst) {
  AddIncrement({{0, {0}}, {0, {0}}, {0, {1}}, {0, {1}}, {0, {1}}});
  BlockScanner scanner(Ctx());
  WorkStats stats;
  const auto first = scanner.NextBlock(&stats);
  ASSERT_EQ(first.size(), 1u);  // token-0 block of 2
  EXPECT_EQ(first[0].block_size, 2u);
  const auto second = scanner.NextBlock(&stats);
  EXPECT_EQ(second.size(), 3u);  // token-1 block of 3
  EXPECT_TRUE(scanner.NextBlock(&stats).empty());
  EXPECT_TRUE(scanner.Exhausted());
}

TEST_F(BlockScannerTest, PicksUpBlocksAddedAfterBuild) {
  AddIncrement({{0, {0}}, {0, {0}}});
  BlockScanner scanner(Ctx());
  WorkStats stats;
  EXPECT_EQ(scanner.NextBlock(&stats).size(), 1u);
  EXPECT_TRUE(scanner.NextBlock(&stats).empty());
  // A new block appears; the rebuild finds it.
  AddIncrement({{0, {1}}, {0, {1}}});
  EXPECT_EQ(scanner.NextBlock(&stats).size(), 1u);
}

TEST_F(BlockScannerTest, ReoffersBlocksAfterSignificantGrowth) {
  AddIncrement({{0, {0}}, {0, {0}}});
  BlockScanner scanner(Ctx());
  WorkStats stats;
  EXPECT_EQ(scanner.NextBlock(&stats).size(), 1u);  // pair (0,1)
  EXPECT_TRUE(scanner.NextBlock(&stats).empty());
  // Two new members exceed the growth throttle: the rescan re-offers
  // all C(4,2) pairs (the pipeline's executed filter drops the one
  // already compared).
  AddIncrement({{0, {0}}, {0, {0}}});
  const auto again = scanner.NextBlock(&stats);
  EXPECT_EQ(again.size(), 6u);
  EXPECT_TRUE(scanner.NextBlock(&stats).empty());
  EXPECT_TRUE(scanner.Exhausted());
}

TEST_F(BlockScannerTest, ThrottleDefersSmallGrowthUntilStreamEnd) {
  AddIncrement({{0, {0}}, {0, {0}}});
  BlockScanner scanner(Ctx());
  WorkStats stats;
  EXPECT_EQ(scanner.NextBlock(&stats).size(), 1u);
  // A single new member stays below the throttle while streaming...
  AddIncrement({{0, {0}}});
  EXPECT_TRUE(scanner.NextBlock(&stats).empty());
  // ...but the stream-end full rescan picks it up.
  scanner.AllowFullRescan();
  EXPECT_EQ(scanner.NextBlock(&stats).size(), 3u);
  EXPECT_TRUE(scanner.NextBlock(&stats).empty());
}

TEST_F(BlockScannerTest, CountsGeneratedComparisons) {
  AddIncrement({{0, {0}}, {0, {0}}, {0, {0}}});
  BlockScanner scanner(Ctx());
  WorkStats stats;
  scanner.NextBlock(&stats);
  EXPECT_EQ(stats.comparisons_generated, 3u);
}

}  // namespace
}  // namespace pier
