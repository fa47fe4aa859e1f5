// Tests for src/similarity: token-set measures, Levenshtein (the exact
// DP and the bounded Myers kernel), matchers, and randomized property
// tests for the bounded kernel against the exact DP.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "similarity/matcher.h"
#include "similarity/similarity_kernels.h"
#include "similarity/string_distance.h"
#include "util/rng.h"

namespace pier {
namespace {

std::vector<TokenId> Tokens(std::initializer_list<TokenId> ids) {
  return std::vector<TokenId>(ids);
}

TEST(IntersectionTest, BasicOverlap) {
  EXPECT_EQ(IntersectionSize(Tokens({1, 2, 3}), Tokens({2, 3, 4})), 2u);
  EXPECT_EQ(IntersectionSize(Tokens({1, 2}), Tokens({3, 4})), 0u);
  EXPECT_EQ(IntersectionSize(Tokens({}), Tokens({1})), 0u);
}

TEST(JaccardTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity(Tokens({1, 2, 3}), Tokens({2, 3, 4})),
                   0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(Tokens({1, 2}), Tokens({1, 2})), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(Tokens({1}), Tokens({2})), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(Tokens({}), Tokens({})), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(Tokens({}), Tokens({1})), 0.0);
}

TEST(OverlapCoefficientTest, KnownValues) {
  EXPECT_DOUBLE_EQ(OverlapCoefficient(Tokens({1, 2}), Tokens({1, 2, 3, 4})),
                   1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(Tokens({1, 5}), Tokens({1, 2, 3, 4})),
                   0.5);
}

// Regression: an empty side used to score 1.0 (0/0 guarded with the
// wrong fallback); a set shares nothing with the empty set, so only
// the both-empty case is a perfect overlap.
TEST(OverlapCoefficientTest, EmptySides) {
  EXPECT_DOUBLE_EQ(OverlapCoefficient(Tokens({}), Tokens({1, 2})), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(Tokens({1}), Tokens({})), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(Tokens({}), Tokens({})), 1.0);
}

TEST(CosineTest, KnownValues) {
  EXPECT_NEAR(CosineSimilarity(Tokens({1, 2}), Tokens({1, 2, 3, 4})),
              2.0 / std::sqrt(8.0), 1e-12);
  EXPECT_DOUBLE_EQ(CosineSimilarity(Tokens({1}), Tokens({2})), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(Tokens({}), Tokens({1})), 0.0);
}

TEST(LevenshteinTest, KnownValues) {
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
  EXPECT_EQ(Levenshtein("abc", ""), 3u);
  EXPECT_EQ(Levenshtein("same", "same"), 0u);
  EXPECT_EQ(Levenshtein("a", "b"), 1u);
}

TEST(LevenshteinTest, Symmetric) {
  EXPECT_EQ(Levenshtein("abcdef", "azced"), Levenshtein("azced", "abcdef"));
}

// Property test: the bounded Myers kernel agrees with the exact DP on
// short random strings whenever the distance is within the bound,
// and reports a distance past the bound otherwise.
class LevenshteinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LevenshteinPropertyTest, BandedMatchesExact) {
  Rng rng(GetParam());
  SimilarityScratch scratch;
  for (int iter = 0; iter < 300; ++iter) {
    const size_t la = rng.UniformInt(0, 24);
    const size_t lb = rng.UniformInt(0, 24);
    std::string a;
    std::string b;
    for (size_t i = 0; i < la; ++i) {
      a.push_back(static_cast<char>('a' + rng.UniformInt(0, 3)));
    }
    for (size_t i = 0; i < lb; ++i) {
      b.push_back(static_cast<char>('a' + rng.UniformInt(0, 3)));
    }
    const size_t exact = Levenshtein(a, b);
    const size_t bound = rng.UniformInt(0, 12);
    const size_t banded = MyersEditDistanceBounded(a, b, bound, &scratch);
    if (exact <= bound) {
      EXPECT_EQ(banded, exact) << "a=" << a << " b=" << b << " k=" << bound;
    } else {
      EXPECT_GT(banded, bound) << "a=" << a << " b=" << b << " k=" << bound;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevenshteinPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(NormalizedEditTest, Bounds) {
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(NormalizedEditSimilarity("abcd", "abcx"), 0.75, 1e-12);
}

TEST(NormalizedEditTest, IdenticalStringsShortCircuit) {
  // Identical inputs (any length) must return exactly 1.0 without
  // running the DP; the long-string case would be quadratic otherwise.
  const std::string long_text(10000, 'q');
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity(long_text, long_text), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("x", "x"), 1.0);
  // One empty side: the length-difference lower bound is tight
  // (dist == max_len), decided without the DP.
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("", "abcdefgh"), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("xyz", ""), 0.0);
}

// ---------------------------------------------------------------------------
// Matchers
// ---------------------------------------------------------------------------

EntityProfile MakeProfile(ProfileId id, std::vector<TokenId> tokens,
                          std::string flat) {
  EntityProfile p(id, 0, {});
  p.set_tokens(std::move(tokens));
  p.set_flat_text(std::move(flat));
  return p;
}

TEST(MatcherTest, JaccardMatcherThreshold) {
  const JaccardMatcher matcher(0.5);
  const auto a = MakeProfile(0, {1, 2, 3}, "x");
  const auto b = MakeProfile(1, {2, 3, 4}, "y");
  EXPECT_DOUBLE_EQ(matcher.Similarity(a, b), 0.5);
  EXPECT_TRUE(matcher.Matches(a, b));  // >= threshold
  const JaccardMatcher strict(0.6);
  EXPECT_FALSE(strict.Matches(a, b));
}

TEST(MatcherTest, EditDistanceMatcher) {
  const EditDistanceMatcher matcher(0.7);
  const auto a = MakeProfile(0, {}, "jonathan smith");
  const auto b = MakeProfile(1, {}, "jonathon smith");
  EXPECT_GT(matcher.Similarity(a, b), 0.9);
  EXPECT_TRUE(matcher.Matches(a, b));
}

TEST(MatcherTest, EditDistanceCapsTextLength) {
  const EditDistanceMatcher matcher(0.5, /*max_text_length=*/4);
  const auto a = MakeProfile(0, {}, "abcdXXXXXXXX");
  const auto b = MakeProfile(1, {}, "abcdYYYYYYYY");
  EXPECT_DOUBLE_EQ(matcher.Similarity(a, b), 1.0);  // compares "abcd" only
  EXPECT_EQ(matcher.CostUnits(a, b), 4u * 4u + 1u);
}

TEST(MatcherTest, CostUnitsScaleWithInput) {
  const JaccardMatcher js;
  const EditDistanceMatcher ed;
  const auto small = MakeProfile(0, {1}, "ab");
  const auto large = MakeProfile(1, {1, 2, 3, 4, 5, 6, 7, 8},
                                 "a much longer text value here");
  EXPECT_LT(js.CostUnits(small, small), js.CostUnits(large, large));
  EXPECT_LT(ed.CostUnits(small, small), ed.CostUnits(large, large));
  // ED on long text is far more expensive than JS -- the property the
  // adaptive K reacts to.
  EXPECT_GT(ed.CostUnits(large, large), 10 * js.CostUnits(large, large));
}

TEST(MatcherTest, FactoryByName) {
  EXPECT_NE(MakeMatcher("JS", 0.5), nullptr);
  EXPECT_NE(MakeMatcher("ED", 0.8), nullptr);
  EXPECT_NE(MakeMatcher("COS", 0.6), nullptr);
  EXPECT_EQ(MakeMatcher("nope", 0.5), nullptr);
  EXPECT_STREQ(MakeMatcher("JS", 0.5)->name(), "JS");
  EXPECT_DOUBLE_EQ(MakeMatcher("ED", 0.8)->threshold(), 0.8);
}

TEST(MatcherTest, KnownMatcherNamesListsEveryFactoryName) {
  // The diagnostic list must cover exactly what MakeMatcher accepts.
  const std::string names = KnownMatcherNames();
  for (const char* name : {"JS", "ED", "COS"}) {
    EXPECT_NE(names.find(name), std::string::npos) << name;
    EXPECT_NE(MakeMatcher(name, 0.5), nullptr) << name;
  }
}

TEST(MatcherTest, CosineMatcher) {
  const CosineMatcher matcher(0.5);
  const auto a = MakeProfile(0, {1, 2}, "");
  const auto b = MakeProfile(1, {1, 2}, "");
  EXPECT_DOUBLE_EQ(matcher.Similarity(a, b), 1.0);
}

}  // namespace
}  // namespace pier
