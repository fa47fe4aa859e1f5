// Tests for src/model: token dictionary, profile store, ground truth,
// comparison ordering, and dataset increment splitting.

#include <gtest/gtest.h>

#include "model/comparison.h"
#include "model/dataset.h"
#include "model/entity_profile.h"
#include "model/ground_truth.h"
#include "model/profile_store.h"
#include "model/token_dictionary.h"

namespace pier {
namespace {

TEST(TokenDictionaryTest, InternAssignsDenseIds) {
  TokenDictionary dict;
  EXPECT_EQ(dict.Intern("alpha"), 0u);
  EXPECT_EQ(dict.Intern("beta"), 1u);
  EXPECT_EQ(dict.Intern("alpha"), 0u);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
}

TEST(TokenDictionaryTest, LookupMissReturnsInvalid) {
  TokenDictionary dict;
  dict.Intern("x");
  EXPECT_EQ(dict.Lookup("x"), 0u);
  EXPECT_EQ(dict.Lookup("y"), kInvalidTokenId);
}

TEST(TokenDictionaryTest, SpellingRoundTrips) {
  TokenDictionary dict;
  const TokenId id = dict.Intern("gamma");
  EXPECT_EQ(dict.Spelling(id), "gamma");
}

TEST(ProfileStoreTest, AddAndGet) {
  ProfileStore store;
  store.Add(EntityProfile(0, 0, {{"a", "v"}}));
  store.Add(EntityProfile(1, 1, {}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.Get(0).CopyAttributes()[0].name, "a");
  EXPECT_EQ(store.Get(1).source, 1);
}

TEST(ProfileStoreTest, RejectsNonDenseIds) {
  ProfileStore store;
  EXPECT_DEATH(store.Add(EntityProfile(5, 0, {})), "PIER_CHECK");
}

TEST(ProfileStoreTest, AddressesStableAcrossGrowth) {
  // The parallel match executor reads profiles lock-free while ingest
  // appends; that is only sound because Get() references never move.
  ProfileStore store;
  store.Add(EntityProfile(0, 0, {{"a", "first"}}));
  const EntityProfile* first = &store.Get(0);
  // Cross several chunk boundaries (chunks hold 4096 profiles).
  for (ProfileId id = 1; id < 10000; ++id) {
    store.Add(EntityProfile(id, 0, {}));
  }
  EXPECT_EQ(&store.Get(0), first);
  EXPECT_EQ(store.Get(0).CopyAttributes()[0].value, "first");
  EXPECT_EQ(store.size(), 10000u);
  EXPECT_EQ(store.Get(9999).id, 9999u);
  const EntityProfile* mid = &store.Get(5000);
  store.Add(EntityProfile(10000, 0, {}));
  EXPECT_EQ(&store.Get(5000), mid);
}

TEST(ProfileStoreTest, GetMutableWritesThrough) {
  ProfileStore store;
  store.Add(EntityProfile(0, 0, {}));
  store.GetMutable(0).set_flat_text("filled");
  EXPECT_EQ(store.Get(0).flat_text(), "filled");
}

TEST(GroundTruthTest, SymmetricMembership) {
  GroundTruth truth;
  truth.AddMatch(1, 2);
  EXPECT_TRUE(truth.IsMatch(1, 2));
  EXPECT_TRUE(truth.IsMatch(2, 1));
  EXPECT_FALSE(truth.IsMatch(1, 3));
  EXPECT_EQ(truth.size(), 1u);
}

TEST(GroundTruthTest, DuplicateInsertIgnored) {
  GroundTruth truth;
  truth.AddMatch(1, 2);
  truth.AddMatch(2, 1);
  EXPECT_EQ(truth.size(), 1u);
}

TEST(ComparisonTest, KeyCanonicalizesPairOrder) {
  const Comparison a(3, 7, 1.0);
  const Comparison b(7, 3, 9.0);
  EXPECT_EQ(a.Key(), b.Key());
}

TEST(ComparisonTest, CompareByWeightOrdersByWeight) {
  const CompareByWeight less;
  EXPECT_TRUE(less(Comparison(0, 1, 1.0), Comparison(0, 2, 2.0)));
  EXPECT_FALSE(less(Comparison(0, 1, 2.0), Comparison(0, 2, 1.0)));
}

TEST(ComparisonTest, CompareByWeightTieBreakDeterministic) {
  const CompareByWeight less;
  const Comparison a(0, 1, 1.0);
  const Comparison b(0, 2, 1.0);
  // Exactly one direction holds: a strict weak order with total
  // tie-breaking.
  EXPECT_NE(less(a, b), less(b, a));
}

TEST(ComparisonTest, CompareByBlockThenWeightPrefersSmallBlocks) {
  const CompareByBlockThenWeight less;
  const Comparison small_block(0, 1, 1.0, 3);
  const Comparison big_block(0, 2, 100.0, 50);
  // The small-block comparison is the "greater" (better) one.
  EXPECT_TRUE(less(big_block, small_block));
  EXPECT_FALSE(less(small_block, big_block));
}

TEST(ComparisonTest, CompareByBlockThenWeightUsesWeightWithinBlock) {
  const CompareByBlockThenWeight less;
  const Comparison low(0, 1, 1.0, 5);
  const Comparison high(0, 2, 9.0, 5);
  EXPECT_TRUE(less(low, high));
}

TEST(DatasetTest, SplitIntoEqualIncrements) {
  Dataset d;
  d.profiles.resize(10);
  const auto increments = SplitIntoIncrements(d, 5);
  ASSERT_EQ(increments.size(), 5u);
  for (const auto& inc : increments) EXPECT_EQ(inc.size(), 2u);
  EXPECT_EQ(increments.front().begin, 0u);
  EXPECT_EQ(increments.back().end, 10u);
}

TEST(DatasetTest, SplitDistributesRemainder) {
  Dataset d;
  d.profiles.resize(10);
  const auto increments = SplitIntoIncrements(d, 3);
  ASSERT_EQ(increments.size(), 3u);
  size_t total = 0;
  size_t prev_end = 0;
  for (const auto& inc : increments) {
    EXPECT_EQ(inc.begin, prev_end);  // contiguous
    prev_end = inc.end;
    total += inc.size();
    EXPECT_GE(inc.size(), 3u);
    EXPECT_LE(inc.size(), 4u);
  }
  EXPECT_EQ(total, 10u);
}

TEST(DatasetTest, SplitMoreIncrementsThanProfiles) {
  Dataset d;
  d.profiles.resize(3);
  const auto increments = SplitIntoIncrements(d, 10);
  EXPECT_EQ(increments.size(), 3u);
  for (const auto& inc : increments) EXPECT_EQ(inc.size(), 1u);
}

TEST(DatasetTest, SplitEmptyDataset) {
  Dataset d;
  EXPECT_TRUE(SplitIntoIncrements(d, 4).empty());
  d.profiles.resize(4);
  EXPECT_TRUE(SplitIntoIncrements(d, 0).empty());
}

TEST(DatasetTest, NumProfilesPerSource) {
  Dataset d;
  d.profiles.push_back(EntityProfile(0, 0, {}));
  d.profiles.push_back(EntityProfile(1, 1, {}));
  d.profiles.push_back(EntityProfile(2, 1, {}));
  EXPECT_EQ(d.NumProfiles(0), 1u);
  EXPECT_EQ(d.NumProfiles(1), 2u);
}

}  // namespace
}  // namespace pier
