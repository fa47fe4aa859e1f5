// Tests for src/similarity/similarity_kernels: the Myers bit-parallel
// Levenshtein kernels must agree with the naive DP on every input
// (randomized over lengths 0-300, alphabets from binary to full-byte
// including high bytes), the threshold->integer-bound conversions must
// satisfy their defining property against the reference floating-point
// expressions, and the set-similarity verdicts must answer exactly
// "reference similarity >= threshold". Suites are prefixed
// SimilarityKernels so the CI sanitizer gates pick them up by name.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "similarity/intersect_kernel.h"
#include "similarity/matcher.h"
#include "similarity/similarity_kernels.h"
#include "similarity/string_distance.h"
#include "util/rng.h"

namespace pier {
namespace {

std::vector<TokenId> Tokens(std::initializer_list<TokenId> ids) {
  return std::vector<TokenId>(ids);
}

std::string RandomString(Rng& rng, size_t len, uint32_t alphabet) {
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Offset into the printable range for small alphabets; alphabet
    // 256 exercises every byte value including 0x00 and high bytes.
    const uint32_t c = static_cast<uint32_t>(rng.UniformInt(0, alphabet - 1));
    s.push_back(static_cast<char>(alphabet == 256 ? c : 'a' + c));
  }
  return s;
}

std::vector<TokenId> RandomTokenSet(Rng& rng, size_t size, uint64_t universe) {
  std::vector<TokenId> tokens;
  tokens.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    tokens.push_back(static_cast<TokenId>(rng.UniformInt(0, universe)));
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

// ---------------------------------------------------------------------------
// Myers bit-parallel edit distance
// ---------------------------------------------------------------------------

TEST(SimilarityKernelsMyersTest, KnownValues) {
  SimilarityScratch scratch;
  EXPECT_EQ(MyersEditDistance("kitten", "sitting", &scratch), 3u);
  EXPECT_EQ(MyersEditDistance("flaw", "lawn", &scratch), 2u);
  EXPECT_EQ(MyersEditDistance("", "abc", &scratch), 3u);
  EXPECT_EQ(MyersEditDistance("abc", "", &scratch), 3u);
  EXPECT_EQ(MyersEditDistance("", "", &scratch), 0u);
  EXPECT_EQ(MyersEditDistance("same", "same", &scratch), 0u);
  EXPECT_EQ(MyersEditDistance("a", "b", &scratch), 1u);
  // Affix trimming must not merge across the differing core.
  EXPECT_EQ(MyersEditDistance("prefixXmiddleYsuffix", "prefixZmiddleWsuffix",
                              &scratch),
            2u);
}

TEST(SimilarityKernelsMyersTest, HighBytesAndEmbeddedNul) {
  SimilarityScratch scratch;
  const std::string a{"\x00\xff\x80za", 5};
  const std::string b{"\x00\xfe\x80zb", 5};
  EXPECT_EQ(MyersEditDistance(a, b, &scratch), Levenshtein(a, b));
  EXPECT_EQ(Levenshtein(a, b), 2u);
}

TEST(SimilarityKernelsMyersTest, BlockBoundaryLengths) {
  // Word-width boundaries are where the blocked variant's carry logic
  // lives; pin each of them against the DP.
  SimilarityScratch scratch;
  Rng rng(99);
  for (const size_t len : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 300u}) {
    const std::string a = RandomString(rng, len, 4);
    std::string b = a;
    // A few random edits so trimming cannot reduce to the empty core.
    for (int e = 0; e < 5 && !b.empty(); ++e) {
      b[rng.UniformInt(0, b.size() - 1)] =
          static_cast<char>('a' + rng.UniformInt(0, 3));
    }
    EXPECT_EQ(MyersEditDistance(a, b, &scratch), Levenshtein(a, b))
        << "len=" << len;
  }
}

TEST(SimilarityKernelsMyersTest, ScratchReuseAcrossGrowthAndShrink) {
  // One scratch across shrinking and growing patterns: the epoch
  // stamps must never let a stale Peq row leak into a later call.
  SimilarityScratch scratch;
  Rng rng(7);
  std::vector<std::pair<std::string, std::string>> cases;
  for (const size_t len : {200u, 3u, 130u, 0u, 64u, 299u, 1u, 65u}) {
    cases.emplace_back(RandomString(rng, len, 26),
                       RandomString(rng, len / 2 + 1, 26));
  }
  for (const auto& [a, b] : cases) {
    EXPECT_EQ(MyersEditDistance(a, b, &scratch), Levenshtein(a, b))
        << "a.size=" << a.size() << " b.size=" << b.size();
  }
}

TEST(SimilarityKernelsBoundedTest, KnownValues) {
  SimilarityScratch scratch;
  EXPECT_EQ(MyersEditDistanceBounded("kitten", "sitting", 3, &scratch), 3u);
  EXPECT_EQ(MyersEditDistanceBounded("kitten", "sitting", 10, &scratch), 3u);
  EXPECT_EQ(MyersEditDistanceBounded("kitten", "sitting", 2, &scratch), 3u);
  EXPECT_EQ(MyersEditDistanceBounded("aaaa", "bbbb", 1, &scratch), 2u);
  EXPECT_EQ(MyersEditDistanceBounded("ab", "abcdefgh", 3, &scratch), 4u);
  EXPECT_EQ(MyersEditDistanceBounded("", "", 0, &scratch), 0u);
  EXPECT_EQ(MyersEditDistanceBounded("abc", "", 5, &scratch), 3u);
}

// Property: both the bit-parallel bounded kernel and the reference
// banded DP compute exactly min(Levenshtein(a, b), max_dist + 1), and
// the exact kernel equals the DP, over fuzzed strings of lengths 0-300
// and alphabet sizes 2..256 (high bytes included). The scratch is
// reused across every iteration to stress the epoch stamping.
class SimilarityKernelsMyersPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityKernelsMyersPropertyTest, KernelsMatchReferenceDp) {
  Rng rng(GetParam());
  SimilarityScratch scratch;
  const uint32_t alphabets[] = {2, 4, 26, 256};
  for (int iter = 0; iter < 200; ++iter) {
    const uint32_t alphabet = alphabets[iter % 4];
    const std::string a = RandomString(rng, rng.UniformInt(0, 300), alphabet);
    const std::string b = RandomString(rng, rng.UniformInt(0, 300), alphabet);
    const size_t exact = Levenshtein(a, b);
    ASSERT_EQ(MyersEditDistance(a, b, &scratch), exact)
        << "|a|=" << a.size() << " |b|=" << b.size()
        << " alphabet=" << alphabet;

    const size_t bound = rng.UniformInt(0, 40);
    const size_t expected = std::min(exact, bound + 1);
    ASSERT_EQ(MyersEditDistanceBounded(a, b, bound, &scratch), expected)
        << "|a|=" << a.size() << " |b|=" << b.size() << " k=" << bound;
    // Satellite: the reference banded DP obeys the same contract.
    ASSERT_EQ(LevenshteinBounded(a, b, bound), expected)
        << "|a|=" << a.size() << " |b|=" << b.size() << " k=" << bound;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityKernelsMyersPropertyTest,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

// Applies `edits` random unit edits to `base`. With `inserts_only` the
// result is exactly `edits` chars longer, so the length difference sits
// at or just above the distance -- the band's asymmetric edge.
std::string RandomlyEdited(Rng& rng, const std::string& base, size_t edits,
                           uint32_t alphabet, bool inserts_only) {
  std::string s = base;
  for (size_t e = 0; e < edits; ++e) {
    const char fresh = RandomString(rng, 1, alphabet)[0];
    const uint64_t op = inserts_only || s.empty() ? 0 : rng.UniformInt(0, 2);
    if (op == 0) {
      s.insert(s.begin() + static_cast<ptrdiff_t>(rng.UniformInt(0, s.size())),
               fresh);
    } else if (op == 1) {
      s.erase(rng.UniformInt(0, s.size() - 1), 1);
    } else {
      s[rng.UniformInt(0, s.size() - 1)] = fresh;
    }
  }
  return s;
}

// Property at the band edge: near-duplicates (b is a plus a controlled
// number of edits) of up to 600 chars, so up to ten blocks and windows
// whose first block lies mid-pattern, with bounds straddling the exact
// distance. Independent random strings almost never land there.
class SimilarityKernelsBandEdgePropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityKernelsBandEdgePropertyTest, BoundedKernelExactAtTheBound) {
  Rng rng(GetParam());
  SimilarityScratch scratch;
  const uint32_t alphabets[] = {2, 4, 26, 256};
  for (int iter = 0; iter < 120; ++iter) {
    const uint32_t alphabet = alphabets[iter % 4];
    const std::string base =
        RandomString(rng, rng.UniformInt(0, 600), alphabet);
    const size_t edits =
        rng.UniformInt(0, std::max<size_t>(base.size() / 4, 8));
    const bool inserts_only = iter % 3 == 0;
    std::string a = base;
    std::string b = RandomlyEdited(rng, base, edits, alphabet, inserts_only);
    if (iter % 2 == 1) std::swap(a, b);
    const size_t exact = Levenshtein(a, b);
    ASSERT_EQ(MyersEditDistance(a, b, &scratch), exact)
        << "|a|=" << a.size() << " |b|=" << b.size()
        << " alphabet=" << alphabet;

    const size_t bounds[] = {exact > 0 ? exact - 1 : 0, exact, exact + 1,
                             rng.UniformInt(0, exact + 8),
                             rng.UniformInt(0, 2 * exact + 8)};
    for (const size_t bound : bounds) {
      ASSERT_EQ(MyersEditDistanceBounded(a, b, bound, &scratch),
                std::min(exact, bound + 1))
          << "|a|=" << a.size() << " |b|=" << b.size() << " k=" << bound
          << " exact=" << exact << " alphabet=" << alphabet;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityKernelsBandEdgePropertyTest,
                         ::testing::Values(71u, 72u, 73u, 74u));

// ---------------------------------------------------------------------------
// Threshold -> integer-bound conversions
// ---------------------------------------------------------------------------

// The conversions exist so kernels can compare integers instead of
// doubles; each test checks the *defining property*: the integer bound
// classifies every feasible count exactly as the reference
// floating-point expression does, including degenerate thresholds.
const double kThresholds[] = {0.3,  0.5, 0.8,       0.0, 1.0,
                              -0.5, 1.5, 1.0 / 3.0, 0.9999999999999999};

TEST(SimilarityKernelsThresholdTest, EditDistanceBoundDefiningProperty) {
  for (size_t max_len = 1; max_len <= 48; ++max_len) {
    for (const double t : kThresholds) {
      const ptrdiff_t k = MaxEditDistanceForThreshold(t, max_len);
      ASSERT_GE(k, -1);
      ASSERT_LE(k, static_cast<ptrdiff_t>(max_len));
      for (size_t d = 0; d <= max_len; ++d) {
        const double sim =
            1.0 - static_cast<double>(d) / static_cast<double>(max_len);
        ASSERT_EQ(static_cast<ptrdiff_t>(d) <= k, sim >= t)
            << "t=" << t << " max_len=" << max_len << " d=" << d;
      }
    }
  }
}

TEST(SimilarityKernelsThresholdTest, EditDistanceBoundRandomThresholds) {
  Rng rng(21);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t max_len = rng.UniformInt(1, 300);
    const double t = rng.UniformDouble() * 1.2 - 0.1;
    const ptrdiff_t k = MaxEditDistanceForThreshold(t, max_len);
    // Spot-check the boundary: k passes, k+1 fails.
    const auto sim = [max_len](ptrdiff_t d) {
      return 1.0 - static_cast<double>(d) / static_cast<double>(max_len);
    };
    if (k >= 0) {
      ASSERT_GE(sim(k), t) << "t=" << t << " max_len=" << max_len;
    }
    if (k < static_cast<ptrdiff_t>(max_len)) {
      ASSERT_LT(sim(k + 1), t) << "t=" << t << " max_len=" << max_len;
    }
  }
}

TEST(SimilarityKernelsThresholdTest, JaccardOverlapDefiningProperty) {
  for (size_t sa = 0; sa <= 24; ++sa) {
    for (size_t sb = 0; sb <= 24; ++sb) {
      if (sa + sb == 0) continue;
      for (const double t : kThresholds) {
        const size_t required = MinOverlapForJaccard(t, sa, sb);
        const size_t cap = std::min(sa, sb);
        ASSERT_LE(required, cap + 1);
        for (size_t c = 0; c <= cap; ++c) {
          const double sim = static_cast<double>(c) /
                             static_cast<double>(sa + sb - c);
          ASSERT_EQ(c >= required, sim >= t)
              << "t=" << t << " sa=" << sa << " sb=" << sb << " c=" << c;
        }
      }
    }
  }
}

TEST(SimilarityKernelsThresholdTest, CosineOverlapDefiningProperty) {
  for (size_t sa = 1; sa <= 24; ++sa) {
    for (size_t sb = 1; sb <= 24; ++sb) {
      for (const double t : kThresholds) {
        const size_t required = MinOverlapForCosine(t, sa, sb);
        const size_t cap = std::min(sa, sb);
        ASSERT_LE(required, cap + 1);
        const double denom = std::sqrt(static_cast<double>(sa) *
                                       static_cast<double>(sb));
        for (size_t c = 0; c <= cap; ++c) {
          const double sim = static_cast<double>(c) / denom;
          ASSERT_EQ(c >= required, sim >= t)
              << "t=" << t << " sa=" << sa << " sb=" << sb << " c=" << c;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded intersection
// ---------------------------------------------------------------------------

TEST(SimilarityKernelsIntersectionTest, Basics) {
  EXPECT_TRUE(IntersectionAtLeast(Tokens({1, 2, 3}), Tokens({2, 3, 4}), 0));
  EXPECT_TRUE(IntersectionAtLeast(Tokens({1, 2, 3}), Tokens({2, 3, 4}), 2));
  EXPECT_FALSE(IntersectionAtLeast(Tokens({1, 2, 3}), Tokens({2, 3, 4}), 3));
  EXPECT_TRUE(IntersectionAtLeast(Tokens({}), Tokens({}), 0));
  EXPECT_FALSE(IntersectionAtLeast(Tokens({}), Tokens({1}), 1));
  // The size filter rejects before touching any element.
  EXPECT_FALSE(IntersectionAtLeast(Tokens({1, 2}), Tokens({1, 2, 3}), 3));
}

TEST(SimilarityKernelsIntersectionTest, AgreesWithExactCount) {
  Rng rng(31);
  for (int iter = 0; iter < 500; ++iter) {
    // Alternate balanced and heavily skewed sizes so both the merge
    // path and the galloping path run.
    const bool skewed = iter % 2 == 1;
    const size_t la = skewed ? rng.UniformInt(0, 4) : rng.UniformInt(0, 60);
    const size_t lb = skewed ? rng.UniformInt(120, 400)
                             : rng.UniformInt(0, 60);
    const auto a = RandomTokenSet(rng, la, 500);
    const auto b = RandomTokenSet(rng, lb, 500);
    const size_t exact = IntersectionSize(a, b);
    for (const size_t required :
         {size_t{0}, exact > 0 ? exact - 1 : 0, exact, exact + 1,
          std::min(a.size(), b.size()) + 1}) {
      ASSERT_EQ(IntersectionAtLeast(a, b, required), exact >= required)
          << "|a|=" << a.size() << " |b|=" << b.size()
          << " required=" << required << " exact=" << exact;
      ASSERT_EQ(IntersectionAtLeast(b, a, required), exact >= required)
          << "(swapped) required=" << required;
    }
  }
}

// ---------------------------------------------------------------------------
// Verdict kernels vs the reference scores
// ---------------------------------------------------------------------------

class SimilarityKernelsVerdictPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityKernelsVerdictPropertyTest, SetVerdictsMatchReference) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 400; ++iter) {
    const bool skewed = iter % 3 == 2;
    const size_t la = skewed ? rng.UniformInt(0, 3) : rng.UniformInt(0, 40);
    const size_t lb = skewed ? rng.UniformInt(100, 300)
                             : rng.UniformInt(0, 40);
    // A small universe forces frequent overlap near the threshold.
    const auto a = RandomTokenSet(rng, la, 80);
    const auto b = RandomTokenSet(rng, lb, 80);
    const double thresholds[] = {0.3, 0.5, 0.8, rng.UniformDouble()};
    for (const double t : thresholds) {
      ASSERT_EQ(JaccardVerdict(a, b, t), JaccardSimilarity(a, b) >= t)
          << "|a|=" << a.size() << " |b|=" << b.size() << " t=" << t;
      ASSERT_EQ(CosineVerdict(a, b, t), CosineSimilarity(a, b) >= t)
          << "|a|=" << a.size() << " |b|=" << b.size() << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityKernelsVerdictPropertyTest,
                         ::testing::Values(41u, 42u, 43u));

TEST(SimilarityKernelsVerdictTest, EmptySetEdgeCases) {
  // Reference semantics: Jaccard({}, {}) = 1, Cosine({}, {}) = 1, and
  // any one-empty pair scores 0.
  for (const double t : {0.0, 0.5, 1.0, 1.5}) {
    ASSERT_EQ(JaccardVerdict({}, {}, t), 1.0 >= t) << "t=" << t;
    ASSERT_EQ(CosineVerdict({}, {}, t), 1.0 >= t) << "t=" << t;
    ASSERT_EQ(JaccardVerdict({}, Tokens({1, 2}), t), 0.0 >= t) << "t=" << t;
    ASSERT_EQ(CosineVerdict(Tokens({7}), {}, t), 0.0 >= t) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Matcher-level equivalence: Verdict == Matches, Kernel == Similarity
// ---------------------------------------------------------------------------

EntityProfile MakeProfile(ProfileId id, std::vector<TokenId> tokens,
                          std::string flat) {
  EntityProfile p(id, 0, {});
  p.set_tokens(std::move(tokens));
  p.set_flat_text(std::move(flat));
  return p;
}

std::vector<EntityProfile> RandomProfiles(Rng& rng, size_t count) {
  std::vector<EntityProfile> profiles;
  profiles.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Text pairs drawn from a small pool of bases plus random edits
    // keep many pairs near the decision boundary; lengths straddle the
    // 64-char single-word limit and the 256-char matcher cap.
    std::string text = RandomString(rng, rng.UniformInt(0, 320), 6);
    profiles.push_back(MakeProfile(static_cast<ProfileId>(i),
                                   RandomTokenSet(rng, rng.UniformInt(0, 30),
                                                  60),
                                   std::move(text)));
  }
  return profiles;
}

TEST(SimilarityKernelsMatcherTest, VerdictAndKernelMatchReference) {
  Rng rng(51);
  const std::vector<EntityProfile> profiles = RandomProfiles(rng, 120);

  std::vector<std::unique_ptr<Matcher>> matchers;
  for (const double t : {0.3, 0.5, 0.8}) {
    matchers.push_back(std::make_unique<JaccardMatcher>(t));
    matchers.push_back(std::make_unique<CosineMatcher>(t));
    matchers.push_back(
        std::make_unique<EditDistanceMatcher>(t, /*max_text_length=*/256));
  }

  SimilarityScratch scratch;
  for (const auto& matcher : matchers) {
    for (int iter = 0; iter < 1500; ++iter) {
      const EntityProfile& a =
          profiles[rng.UniformInt(0, profiles.size() - 1)];
      const EntityProfile& b =
          profiles[rng.UniformInt(0, profiles.size() - 1)];
      // Exact double equality: the kernel path must reproduce the
      // reference score bit-for-bit, and the verdict its decision.
      ASSERT_EQ(matcher->SimilarityKernel(a, b, &scratch),
                matcher->Similarity(a, b))
          << matcher->name() << " t=" << matcher->threshold() << " a=" << a.id
          << " b=" << b.id;
      ASSERT_EQ(matcher->Verdict(a, b, &scratch), matcher->Matches(a, b))
          << matcher->name() << " t=" << matcher->threshold() << " a=" << a.id
          << " b=" << b.id;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched intersection kernel
// ---------------------------------------------------------------------------

size_t NaiveIntersectionSize(const std::vector<TokenId>& a,
                             const std::vector<TokenId>& b) {
  size_t common = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

TEST(IntersectKernelTest, SizeMatchesNaiveAcrossShapes) {
  // Sizes straddle the 8-wide block boundary on both sides, and the
  // universe widths sweep from near-total overlap to near-disjoint so
  // every advance pattern of the block loop gets exercised.
  Rng rng(4242);
  const size_t sizes[] = {0, 1, 2, 7, 8, 9, 15, 16, 17, 33, 100, 1000};
  for (const size_t sa : sizes) {
    for (const size_t sb : sizes) {
      for (const uint64_t universe : {40u, 300u, 100000u}) {
        const std::vector<TokenId> a = RandomTokenSet(rng, sa, universe);
        const std::vector<TokenId> b = RandomTokenSet(rng, sb, universe);
        ASSERT_EQ(SortedIntersectionSize(a, b), NaiveIntersectionSize(a, b))
            << "sa=" << sa << " sb=" << sb << " universe=" << universe;
      }
    }
  }
}

TEST(IntersectKernelTest, SizeEdgeCases) {
  const std::vector<TokenId> empty;
  const std::vector<TokenId> run = Tokens({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(SortedIntersectionSize(empty, empty), 0u);
  EXPECT_EQ(SortedIntersectionSize(empty, run), 0u);
  EXPECT_EQ(SortedIntersectionSize(run, run), run.size());
  // Fully disjoint blocks of exactly the vector width.
  const std::vector<TokenId> lo = Tokens({0, 1, 2, 3, 4, 5, 6, 7});
  const std::vector<TokenId> hi = Tokens({8, 9, 10, 11, 12, 13, 14, 15});
  EXPECT_EQ(SortedIntersectionSize(lo, hi), 0u);
  EXPECT_EQ(SortedIntersectionSize(lo, lo), 8u);
}

TEST(IntersectKernelTest, AtLeastMatchesSizeForEveryThreshold) {
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t sa = static_cast<size_t>(rng.UniformInt(0, 60));
    const size_t sb = static_cast<size_t>(rng.UniformInt(0, 60));
    const uint64_t universe = trial % 2 == 0 ? 80 : 5000;
    const std::vector<TokenId> a = RandomTokenSet(rng, sa, universe);
    const std::vector<TokenId> b = RandomTokenSet(rng, sb, universe);
    const size_t common = NaiveIntersectionSize(a, b);
    const size_t max_required = std::min(a.size(), b.size()) + 2;
    for (size_t required = 0; required <= max_required; ++required) {
      ASSERT_EQ(SortedIntersectionAtLeast(a, b, required), common >= required)
          << "trial=" << trial << " required=" << required
          << " common=" << common;
    }
  }
}

TEST(SimilarityKernelsMatcherTest, EditDistanceVerdictNearIdenticalTexts) {
  // Deterministic boundary cases for the threshold->distance
  // conversion: pairs a fixed number of edits apart on either side of
  // the cutoff, including texts longer than the 256-char cap.
  SimilarityScratch scratch;
  Rng rng(61);
  for (const double t : {0.3, 0.5, 0.8, 0.95}) {
    const EditDistanceMatcher matcher(t, /*max_text_length=*/256);
    for (const size_t len : {8u, 40u, 64u, 200u, 256u, 300u}) {
      const std::string base = RandomString(rng, len, 8);
      for (size_t edits = 0; edits <= std::min<size_t>(len, 24); ++edits) {
        std::string mutated = base;
        for (size_t e = 0; e < edits; ++e) {
          mutated[e] = static_cast<char>('z' - (e % 4));
        }
        const auto a = MakeProfile(0, {}, base);
        const auto b = MakeProfile(1, {}, mutated);
        ASSERT_EQ(matcher.Verdict(a, b, &scratch), matcher.Matches(a, b))
            << "t=" << t << " len=" << len << " edits=" << edits;
      }
    }
  }
}

TEST(SimilarityKernelsMatcherTest, EditDistanceVerdictLongNearDuplicates) {
  // The dbpedia-ed configuration: texts past the 512-char cap, where
  // the banded kernel runs several blocks and the bound (~128) is wide.
  SimilarityScratch scratch;
  Rng rng(81);
  const EditDistanceMatcher matcher(0.75, /*max_text_length=*/512);
  for (int iter = 0; iter < 60; ++iter) {
    const uint32_t alphabet = iter % 2 == 0 ? 26 : 4;
    const std::string base =
        RandomString(rng, rng.UniformInt(512, 700), alphabet);
    // Up to ~1.5x the bound, so verdicts fall on both sides of it.
    const size_t edits = rng.UniformInt(0, 200);
    const auto a = MakeProfile(0, {}, base);
    const auto b = MakeProfile(
        1, {}, RandomlyEdited(rng, base, edits, alphabet, iter % 5 == 0));
    ASSERT_EQ(matcher.Verdict(a, b, &scratch), matcher.Matches(a, b))
        << "iter=" << iter << " edits=" << edits;
  }
}

}  // namespace
}  // namespace pier
