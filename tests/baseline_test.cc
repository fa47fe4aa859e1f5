// Tests for the baseline algorithms: Batch ER, PBS, PPS (static and
// GLOBAL modes), PPS-LOCAL, and I-BASE, driven directly through the
// ErAlgorithm interface.

#include <set>

#include <gtest/gtest.h>

#include "baseline/batch_er.h"
#include "baseline/i_base.h"
#include "baseline/pbs.h"
#include "baseline/pps.h"
#include "baseline/pps_local.h"

namespace pier {
namespace {

EntityProfile Raw(ProfileId id, SourceId source, std::string title) {
  return EntityProfile(id, source, {{"title", std::move(title)}});
}

std::vector<Comparison> DrainAll(ErAlgorithm& alg, size_t max_batches = 100) {
  std::vector<Comparison> out;
  WorkStats stats;
  for (size_t i = 0; i < max_batches; ++i) {
    auto batch = alg.NextBatch(&stats);
    if (batch.empty()) break;
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

std::set<uint64_t> Keys(const std::vector<Comparison>& cmps) {
  std::set<uint64_t> keys;
  for (const auto& c : cmps) keys.insert(c.Key());
  return keys;
}

// ---------------------------------------------------------------------------
// Batch ER
// ---------------------------------------------------------------------------

TEST(BatchErTest, NothingBeforeStreamEnd) {
  BatchEr batch(DatasetKind::kDirty, BlockingOptions{});
  batch.OnIncrement({Raw(0, 0, "alpha x"), Raw(1, 0, "alpha y")});
  EXPECT_TRUE(DrainAll(batch).empty());
  batch.OnStreamEnd();
  EXPECT_EQ(DrainAll(batch).size(), 1u);
}

TEST(BatchErTest, CoversAllCoBlockedPairsOnce) {
  BatchEr batch(DatasetKind::kDirty, BlockingOptions{});
  batch.OnIncrement({Raw(0, 0, "tok a1"), Raw(1, 0, "tok a2"),
                     Raw(2, 0, "tok a3"), Raw(3, 0, "other b1")});
  batch.OnStreamEnd();
  const auto emitted = DrainAll(batch);
  EXPECT_EQ(Keys(emitted).size(), 3u);  // C(3,2) sharing "tok"
  EXPECT_EQ(emitted.size(), 3u);        // no duplicates
}

TEST(BatchErTest, CleanCleanCrossSourceOnly) {
  BatchEr batch(DatasetKind::kCleanClean, BlockingOptions{});
  batch.OnIncrement({Raw(0, 0, "tok one"), Raw(1, 0, "tok two"),
                     Raw(2, 1, "tok three")});
  batch.OnStreamEnd();
  const auto keys = Keys(DrainAll(batch));
  EXPECT_EQ(keys.size(), 2u);
  EXPECT_FALSE(keys.count(PairKey(0, 1)));
}

// ---------------------------------------------------------------------------
// PBS
// ---------------------------------------------------------------------------

TEST(PbsTest, SmallestBlockEmittedFirst) {
  Pbs pbs(DatasetKind::kDirty, BlockingOptions{});
  // "rare" block of 2, "common" block of 4.
  pbs.OnIncrement({Raw(0, 0, "rare common"), Raw(1, 0, "rare common"),
                   Raw(2, 0, "common x"), Raw(3, 0, "common y")});
  pbs.OnStreamEnd();
  const auto emitted = DrainAll(pbs);
  ASSERT_FALSE(emitted.empty());
  EXPECT_EQ(PairKey(emitted[0].x, emitted[0].y), PairKey(0, 1));
  // Full coverage without duplicates despite overlapping blocks.
  EXPECT_EQ(Keys(emitted).size(), 6u);
  EXPECT_EQ(emitted.size(), 6u);
}

TEST(PbsTest, StaticModeNeedsStreamEnd) {
  Pbs pbs(DatasetKind::kDirty, BlockingOptions{});
  pbs.OnIncrement({Raw(0, 0, "a b"), Raw(1, 0, "a b")});
  EXPECT_TRUE(DrainAll(pbs).empty());
}

TEST(PbsTest, GlobalModeEmitsAfterEveryIncrement) {
  Pbs pbs(DatasetKind::kDirty, BlockingOptions{},
          BaselineMode::kGlobalIncremental);
  pbs.OnIncrement({Raw(0, 0, "tok one"), Raw(1, 0, "tok two")});
  EXPECT_EQ(DrainAll(pbs).size(), 1u);
  pbs.OnIncrement({Raw(2, 0, "tok three")});
  // Re-initialized order; the already-executed pair is suppressed.
  const auto keys = Keys(DrainAll(pbs));
  EXPECT_EQ(keys.size(), 2u);
  EXPECT_TRUE(keys.count(PairKey(0, 2)));
  EXPECT_TRUE(keys.count(PairKey(1, 2)));
}

TEST(PbsTest, Names) {
  Pbs stat(DatasetKind::kDirty, BlockingOptions{});
  Pbs glob(DatasetKind::kDirty, BlockingOptions{},
           BaselineMode::kGlobalIncremental);
  EXPECT_STREQ(stat.name(), "PBS");
  EXPECT_STREQ(glob.name(), "PBS-GLOBAL");
}

// ---------------------------------------------------------------------------
// PPS
// ---------------------------------------------------------------------------

TEST(PpsTest, BestPairsFirstThenTopK) {
  Pps pps(DatasetKind::kDirty, BlockingOptions{});
  // (0,1) share two tokens; (2,3) share one.
  pps.OnIncrement({Raw(0, 0, "alpha beta"), Raw(1, 0, "alpha beta"),
                   Raw(2, 0, "gamma g1"), Raw(3, 0, "gamma g2")});
  pps.OnStreamEnd();
  const auto emitted = DrainAll(pps);
  ASSERT_GE(emitted.size(), 2u);
  EXPECT_EQ(PairKey(emitted[0].x, emitted[0].y), PairKey(0, 1));
  EXPECT_EQ(Keys(emitted).size(), emitted.size());  // no duplicates
}

TEST(PpsTest, GlobalModeReinitializesEachIncrement) {
  Pps pps(DatasetKind::kDirty, BlockingOptions{},
          BaselineMode::kGlobalIncremental);
  pps.OnIncrement({Raw(0, 0, "tok a"), Raw(1, 0, "tok b")});
  EXPECT_EQ(DrainAll(pps).size(), 1u);
  pps.OnIncrement({Raw(2, 0, "tok c")});
  const auto keys = Keys(DrainAll(pps));
  EXPECT_EQ(keys.size(), 2u);  // the two new cross pairs only
}

TEST(PpsTest, TopKBoundsPerProfileEmission) {
  // One hub profile sharing a token with 5 spokes; top_k = 2 limits
  // phase-2 emission per profile.
  Pps pps(DatasetKind::kDirty, BlockingOptions{}, BaselineMode::kStatic,
          /*top_k=*/2);
  std::vector<EntityProfile> profiles;
  for (ProfileId id = 0; id < 6; ++id) {
    profiles.push_back(Raw(id, 0, "hub spoke" + std::to_string(id)));
  }
  pps.OnIncrement(std::move(profiles));
  pps.OnStreamEnd();
  const auto emitted = DrainAll(pps);
  // All pairs share exactly one block; phase 1 emits <= 6 best pairs,
  // phase 2 at most one more per profile: total < C(6,2) = 15.
  EXPECT_LT(Keys(emitted).size(), 15u);
  EXPECT_GE(Keys(emitted).size(), 3u);
}

// ---------------------------------------------------------------------------
// PPS-LOCAL
// ---------------------------------------------------------------------------

TEST(PpsLocalTest, OnlyIntraIncrementPairs) {
  PpsLocal local(DatasetKind::kDirty, BlockingOptions{});
  local.OnIncrement({Raw(0, 0, "match token1")});
  EXPECT_TRUE(DrainAll(local).empty());
  // The cross-increment pair (0,1) is never generated.
  local.OnIncrement({Raw(1, 0, "match token2"), Raw(2, 0, "match token3")});
  const auto keys = Keys(DrainAll(local));
  EXPECT_EQ(keys.size(), 1u);
  EXPECT_TRUE(keys.count(PairKey(1, 2)));
  EXPECT_FALSE(keys.count(PairKey(0, 1)));
}

TEST(PpsLocalTest, DiscardsPendingOnNewIncrement) {
  PpsLocal local(DatasetKind::kDirty, BlockingOptions{});
  local.OnIncrement({Raw(0, 0, "aa x"), Raw(1, 0, "aa y")});
  // Pending (0,1) never emitted: the next increment resets it.
  local.OnIncrement({Raw(2, 0, "bb x"), Raw(3, 0, "bb y")});
  const auto keys = Keys(DrainAll(local));
  EXPECT_EQ(keys.size(), 1u);
  EXPECT_TRUE(keys.count(PairKey(2, 3)));
}

TEST(PpsLocalTest, EmitsBestFirstWithinIncrement) {
  PpsLocal local(DatasetKind::kDirty, BlockingOptions{});
  local.OnIncrement({Raw(0, 0, "pp qq"), Raw(1, 0, "pp qq"),
                     Raw(2, 0, "pp zz")});
  WorkStats stats;
  const auto batch = local.NextBatch(&stats);
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(PairKey(batch[0].x, batch[0].y), PairKey(0, 1));  // CBS 2
}

// ---------------------------------------------------------------------------
// I-BASE
// ---------------------------------------------------------------------------

TEST(IBaseTest, ProcessesIncrementEagerly) {
  IBase ibase(DatasetKind::kDirty, BlockingOptions{});
  ibase.OnIncrement({Raw(0, 0, "tok a"), Raw(1, 0, "tok b")});
  EXPECT_FALSE(ibase.ReadyForIncrement());  // pending comparison
  const auto emitted = DrainAll(ibase);
  EXPECT_EQ(emitted.size(), 1u);
  EXPECT_TRUE(ibase.ReadyForIncrement());
}

TEST(IBaseTest, GeneratesCrossIncrementPairs) {
  IBase ibase(DatasetKind::kDirty, BlockingOptions{});
  ibase.OnIncrement({Raw(0, 0, "shared a")});
  DrainAll(ibase);
  ibase.OnIncrement({Raw(1, 0, "shared b")});
  const auto keys = Keys(DrainAll(ibase));
  EXPECT_TRUE(keys.count(PairKey(0, 1)));
}

TEST(IBaseTest, FixedWorkIndependentOfDraining) {
  // I-BASE generates its comparisons at increment time; NextBatch only
  // drains. (The adaptive PIER pipelines instead emit on demand.)
  IBase ibase(DatasetKind::kDirty, BlockingOptions{});
  const WorkStats stats =
      ibase.OnIncrement({Raw(0, 0, "qq a1"), Raw(1, 0, "qq b1"),
                         Raw(2, 0, "qq c1")});
  EXPECT_EQ(stats.comparisons_generated, 3u);  // all pairs up front
}

TEST(IBaseTest, ReadyAgainAfterDrain) {
  IBase ibase(DatasetKind::kDirty, BlockingOptions{}, 0.5,
              /*batch_size=*/1);
  ibase.OnIncrement({Raw(0, 0, "ww a1"), Raw(1, 0, "ww b1"),
                     Raw(2, 0, "ww c1")});
  WorkStats stats;
  int batches = 0;
  while (!ibase.NextBatch(&stats).empty()) ++batches;
  EXPECT_EQ(batches, 3);  // batch size 1
  EXPECT_TRUE(ibase.ReadyForIncrement());
}

}  // namespace
}  // namespace pier
