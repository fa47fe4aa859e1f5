// Equivalence of the allocation-free scratch kernel against the
// retained map-based reference: same (x, y, weight) multiset and the
// same visit count for every WeightingScheme, both DatasetKinds, and
// only_older_neighbors on/off, on seeded datagen data.

#include <algorithm>
#include <gtest/gtest.h>

#include "blocking/block_collection.h"
#include "datagen/generators.h"
#include "metablocking/weighting.h"
#include "model/profile_store.h"
#include "model/token_dictionary.h"
#include "text/tokenizer.h"
#include "weighting_reference.h"

namespace pier {
namespace {

struct Workload {
  ProfileStore store;
  BlockCollection blocks;

  explicit Workload(Dataset dataset) : blocks(dataset.kind) {
    Tokenizer tokenizer;
    TokenDictionary dictionary;
    for (auto& p : dataset.profiles) {
      tokenizer.TokenizeProfile(p, dictionary);
      blocks.AddProfile(p);
      store.Add(std::move(p));
    }
  }

  std::vector<TokenId> ActiveBlocksOf(ProfileId id) const {
    std::vector<TokenId> out;
    for (const TokenId t : store.Get(id).tokens()) {
      if (blocks.IsActive(t)) out.push_back(t);
    }
    return out;
  }
};

Workload& CleanCleanWorkload() {
  static Workload& w = *new Workload([] {
    MoviesOptions options;
    options.source0_count = 300;
    options.source1_count = 250;
    return GenerateMovies(options);
  }());
  return w;
}

Workload& DirtyWorkload() {
  static Workload& w = *new Workload([] {
    CensusOptions options;
    options.num_records = 800;
    return GenerateCensus(options);
  }());
  return w;
}

// Sorts by neighbour id (x is constant within one call's output; ids
// are unique per call, so this is a total order).
void SortByNeighbor(std::vector<Comparison>& cmps) {
  std::sort(cmps.begin(), cmps.end(),
            [](const Comparison& a, const Comparison& b) { return a.y < b.y; });
}

void ExpectEquivalent(const Workload& w, WeightingScheme scheme,
                      bool only_older) {
  const WeightingContext ctx{&w.blocks, &w.store, scheme};
  WeightingScratch scratch;  // one scratch reused across all profiles
  for (ProfileId id = 0; id < w.store.size(); ++id) {
    const EntityProfile& p = w.store.Get(id);
    const std::vector<TokenId> active = w.ActiveBlocksOf(id);
    uint64_t ref_visits = 0;
    uint64_t fast_visits = 0;
    auto ref = GenerateWeightedComparisonsReference(ctx, p, active, only_older,
                                                    &ref_visits);
    auto fast = GenerateWeightedComparisons(ctx, p, active, only_older,
                                            &fast_visits, &scratch);
    EXPECT_EQ(fast_visits, ref_visits) << "profile " << id;
    ASSERT_EQ(fast.size(), ref.size()) << "profile " << id;
    SortByNeighbor(ref);
    SortByNeighbor(fast);
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(fast[i].x, ref[i].x);
      EXPECT_EQ(fast[i].y, ref[i].y);
      // Both kernels perform the identical sequence of floating-point
      // operations per neighbour, so equality is exact.
      EXPECT_EQ(fast[i].weight, ref[i].weight)
          << "profile " << id << " neighbour " << ref[i].y << " scheme "
          << ToString(scheme);
    }
  }
}

class WeightingEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<WeightingScheme, bool>> {};

TEST_P(WeightingEquivalenceTest, CleanClean) {
  const auto [scheme, only_older] = GetParam();
  ExpectEquivalent(CleanCleanWorkload(), scheme, only_older);
}

TEST_P(WeightingEquivalenceTest, Dirty) {
  const auto [scheme, only_older] = GetParam();
  ExpectEquivalent(DirtyWorkload(), scheme, only_older);
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<WeightingScheme, bool>>& info) {
  return std::string(ToString(std::get<0>(info.param))) +
         (std::get<1>(info.param) ? "_OlderOnly" : "_AllNeighbors");
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, WeightingEquivalenceTest,
    ::testing::Combine(::testing::Values(WeightingScheme::kCbs,
                                         WeightingScheme::kEcbs,
                                         WeightingScheme::kJs,
                                         WeightingScheme::kArcs),
                       ::testing::Bool()),
    ParamName);

// The scratch's epoch-stamped logical clear must make back-to-back
// passes independent: repeating a call on a reused scratch yields the
// identical result.
TEST(WeightingScratchTest, ReusedScratchIsStateless) {
  const Workload& w = CleanCleanWorkload();
  const WeightingContext ctx{&w.blocks, &w.store, WeightingScheme::kCbs};
  WeightingScratch scratch;
  const ProfileId id = static_cast<ProfileId>(w.store.size() - 1);
  const EntityProfile& p = w.store.Get(id);
  const std::vector<TokenId> active = w.ActiveBlocksOf(id);
  const auto first = GenerateWeightedComparisons(ctx, p, active, true, nullptr,
                                                 &scratch);
  const auto second = GenerateWeightedComparisons(ctx, p, active, true,
                                                  nullptr, &scratch);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].y, second[i].y);  // first-touch order is stable
    EXPECT_EQ(first[i].weight, second[i].weight);
  }
}

// The token-count sidecar must agree with the stored profiles.
TEST(ProfileStoreTokenCountTest, SidecarMatchesProfiles) {
  const Workload& w = DirtyWorkload();
  for (ProfileId id = 0; id < w.store.size(); ++id) {
    EXPECT_EQ(w.store.TokenCount(id), w.store.Get(id).tokens().size());
  }
}

}  // namespace
}  // namespace pier
