// Tests for src/metablocking: weighting schemes, I-WNP pruning, and
// the batch blocking graph used by PPS.

#include <algorithm>
#include <gtest/gtest.h>

#include "metablocking/blocking_graph.h"
#include "metablocking/i_wnp.h"
#include "metablocking/weighting.h"
#include "weighting_reference.h"

namespace pier {
namespace {

// A small fixture: 4 dirty profiles over tokens {0,1,2}.
//   p0: {0, 1}   p1: {0, 1}   p2: {1, 2}   p3: {2}
class WeightingFixture : public ::testing::Test {
 protected:
  WeightingFixture() : blocks_(DatasetKind::kDirty) {
    Add(0, {0, 1});
    Add(1, {0, 1});
    Add(2, {1, 2});
    Add(3, {2});
  }

  void Add(ProfileId id, std::vector<TokenId> tokens) {
    EntityProfile p(id, 0, {});
    p.set_tokens(std::move(tokens));
    blocks_.AddProfile(p);
    profiles_.Add(std::move(p));
  }

  WeightingContext Ctx(WeightingScheme scheme) {
    return WeightingContext{&blocks_, &profiles_, scheme};
  }

  std::vector<TokenId> ActiveBlocksOf(ProfileId id) {
    std::vector<TokenId> out;
    for (const TokenId t : profiles_.Get(id).tokens()) {
      if (blocks_.IsActive(t)) out.push_back(t);
    }
    return out;
  }

  BlockCollection blocks_;
  ProfileStore profiles_;
};

TEST_F(WeightingFixture, CbsCountsCommonBlocks) {
  auto cmps = GenerateWeightedComparisons(Ctx(WeightingScheme::kCbs),
                                          profiles_.Get(2),
                                          ActiveBlocksOf(2));
  // Neighbors of p2 with smaller id: p0, p1 (via token 1).
  ASSERT_EQ(cmps.size(), 2u);
  for (const auto& c : cmps) {
    EXPECT_EQ(c.x, 2u);
    EXPECT_DOUBLE_EQ(c.weight, 1.0);  // one common block
  }
}

TEST_F(WeightingFixture, CbsCountsMultipleCommonBlocks) {
  auto cmps = GenerateWeightedComparisons(Ctx(WeightingScheme::kCbs),
                                          profiles_.Get(1),
                                          ActiveBlocksOf(1));
  // p1 vs p0 share tokens 0 and 1 -> CBS = 2.
  ASSERT_EQ(cmps.size(), 1u);
  EXPECT_EQ(cmps[0].y, 0u);
  EXPECT_DOUBLE_EQ(cmps[0].weight, 2.0);
}

TEST_F(WeightingFixture, OnlyOlderNeighborsRestricts) {
  auto older = GenerateWeightedComparisons(Ctx(WeightingScheme::kCbs),
                                           profiles_.Get(0),
                                           ActiveBlocksOf(0),
                                           /*only_older_neighbors=*/true);
  EXPECT_TRUE(older.empty());  // p0 is the oldest
  auto all = GenerateWeightedComparisons(Ctx(WeightingScheme::kCbs),
                                         profiles_.Get(0),
                                         ActiveBlocksOf(0),
                                         /*only_older_neighbors=*/false);
  EXPECT_EQ(all.size(), 2u);  // p1 (tokens 0,1), p2 (token 1)
}

TEST_F(WeightingFixture, JsNormalizesByBlockSets) {
  auto cmps = GenerateWeightedComparisons(Ctx(WeightingScheme::kJs),
                                          profiles_.Get(1),
                                          ActiveBlocksOf(1));
  ASSERT_EQ(cmps.size(), 1u);
  // |B0|=2, |B1|=2, CBS=2 -> 2/(2+2-2) = 1.
  EXPECT_DOUBLE_EQ(cmps[0].weight, 1.0);
}

TEST_F(WeightingFixture, ArcsFavorsSmallBlocks) {
  // p3 only shares token 2 (block of 2 -> 1 comparison).
  auto cmps = GenerateWeightedComparisons(Ctx(WeightingScheme::kArcs),
                                          profiles_.Get(3),
                                          ActiveBlocksOf(3));
  ASSERT_EQ(cmps.size(), 1u);
  EXPECT_DOUBLE_EQ(cmps[0].weight, 1.0);  // 1 / ||b|| with ||b|| = 1
}

TEST_F(WeightingFixture, EcbsPositive) {
  auto cmps = GenerateWeightedComparisons(Ctx(WeightingScheme::kEcbs),
                                          profiles_.Get(1),
                                          ActiveBlocksOf(1));
  ASSERT_EQ(cmps.size(), 1u);
  EXPECT_GT(cmps[0].weight, 0.0);
}

TEST(WeightingCleanCleanTest, OnlyCrossSourcePairs) {
  BlockCollection blocks(DatasetKind::kCleanClean);
  ProfileStore profiles;
  auto add = [&](ProfileId id, SourceId s, std::vector<TokenId> tokens) {
    EntityProfile p(id, s, {});
    p.set_tokens(std::move(tokens));
    blocks.AddProfile(p);
    profiles.Add(std::move(p));
  };
  add(0, 0, {0});
  add(1, 0, {0});
  add(2, 1, {0});
  const WeightingContext ctx{&blocks, &profiles, WeightingScheme::kCbs};
  auto cmps = GenerateWeightedComparisons(ctx, profiles.Get(2), {0});
  ASSERT_EQ(cmps.size(), 2u);  // cross-source only, both of source 0
  auto same_source = GenerateWeightedComparisons(ctx, profiles.Get(1), {0});
  EXPECT_TRUE(same_source.empty());  // p0 is same-source
}

TEST(WeightingTest, ToStringNames) {
  EXPECT_STREQ(ToString(WeightingScheme::kCbs), "CBS");
  EXPECT_STREQ(ToString(WeightingScheme::kEcbs), "ECBS");
  EXPECT_STREQ(ToString(WeightingScheme::kJs), "JS");
  EXPECT_STREQ(ToString(WeightingScheme::kArcs), "ARCS");
}

TEST_F(WeightingFixture, ScratchKernelMatchesReference) {
  WeightingScratch scratch;
  for (const auto scheme :
       {WeightingScheme::kCbs, WeightingScheme::kEcbs, WeightingScheme::kJs,
        WeightingScheme::kArcs}) {
    for (ProfileId id = 0; id < profiles_.size(); ++id) {
      auto ref = GenerateWeightedComparisonsReference(
          Ctx(scheme), profiles_.Get(id), ActiveBlocksOf(id));
      auto fast = GenerateWeightedComparisons(Ctx(scheme), profiles_.Get(id),
                                              ActiveBlocksOf(id),
                                              /*only_older_neighbors=*/true,
                                              /*visits=*/nullptr, &scratch);
      auto by_neighbor = [](const Comparison& a, const Comparison& b) {
        return a.y < b.y;
      };
      std::sort(ref.begin(), ref.end(), by_neighbor);
      std::sort(fast.begin(), fast.end(), by_neighbor);
      ASSERT_EQ(fast.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(fast[i].y, ref[i].y);
        EXPECT_DOUBLE_EQ(fast[i].weight, ref[i].weight);
      }
    }
  }
}

TEST_F(WeightingFixture, AppendKeepsExistingOutput) {
  WeightingScratch scratch;
  std::vector<Comparison> out = {Comparison(7, 8, 42.0)};
  AppendWeightedComparisons(Ctx(WeightingScheme::kCbs), profiles_.Get(2),
                            ActiveBlocksOf(2), /*only_older_neighbors=*/true,
                            /*visits=*/nullptr, scratch, &out);
  ASSERT_EQ(out.size(), 3u);  // sentinel + p2's two candidates
  EXPECT_DOUBLE_EQ(out[0].weight, 42.0);
}

TEST_F(WeightingFixture, VisitsCountRawMemberIterations) {
  WeightingScratch scratch;
  uint64_t visits = 0;
  auto cmps = GenerateWeightedComparisons(
      Ctx(WeightingScheme::kCbs), profiles_.Get(2), ActiveBlocksOf(2),
      /*only_older_neighbors=*/true, &visits, &scratch);
  // Blocks of p2: token 1 (members p0,p1,p2) and token 2 (p2,p3).
  EXPECT_EQ(visits, 5u);
  EXPECT_GE(visits, cmps.size());
}

TEST(PairCbsWeightTest, CountsCommonTokens) {
  EntityProfile a(0, 0, {});
  a.set_tokens({1, 2, 3});
  EntityProfile b(1, 0, {});
  b.set_tokens({2, 3, 4});
  EXPECT_DOUBLE_EQ(PairCbsWeight(a, b), 2.0);
}

// ---------------------------------------------------------------------------
// I-WNP
// ---------------------------------------------------------------------------

TEST(IWnpTest, PrunesBelowMean) {
  std::vector<Comparison> cmps = {
      Comparison(0, 1, 1.0), Comparison(0, 2, 2.0), Comparison(0, 3, 9.0)};
  // mean = 4 -> only the 9.0 comparison survives.
  IWnpPrune(&cmps, 0);
  ASSERT_EQ(cmps.size(), 1u);
  EXPECT_DOUBLE_EQ(cmps[0].weight, 9.0);
}

TEST(IWnpTest, KeepsComparisonsAtMean) {
  std::vector<Comparison> cmps = {Comparison(0, 1, 2.0),
                                  Comparison(0, 2, 2.0)};
  IWnpPrune(&cmps, 0);
  EXPECT_EQ(cmps.size(), 2u);  // weight == mean retained
}

TEST(IWnpTest, SingletonAndEmptyPassThrough) {
  std::vector<Comparison> cmps;
  IWnpPrune(&cmps, 0);
  EXPECT_TRUE(cmps.empty());
  cmps = {Comparison(0, 1, 0.5)};
  IWnpPrune(&cmps, 0);
  EXPECT_EQ(cmps.size(), 1u);
}

// Only the tail after `begin` is one neighbourhood: the prefix neither
// counts toward its mean nor gets pruned.
TEST(IWnpTest, PrunesOnlyTheTail) {
  std::vector<Comparison> cmps = {Comparison(0, 1, 0.1), Comparison(1, 2, 9.0),
                                  Comparison(2, 3, 1.0), Comparison(2, 4, 3.0),
                                  Comparison(2, 5, 5.0)};
  IWnpPrune(&cmps, 2);  // tail mean = 3
  ASSERT_EQ(cmps.size(), 4u);
  EXPECT_DOUBLE_EQ(cmps[0].weight, 0.1);
  EXPECT_DOUBLE_EQ(cmps[1].weight, 9.0);
  EXPECT_DOUBLE_EQ(cmps[2].weight, 3.0);
  EXPECT_DOUBLE_EQ(cmps[3].weight, 5.0);
  IWnpPrune(&cmps, 4);  // a single-candidate tail is kept
  EXPECT_EQ(cmps.size(), 4u);
}

TEST(IWnpTest, MeanWeight) {
  EXPECT_DOUBLE_EQ(MeanWeight({}), 0.0);
  const std::vector<Comparison> cmps = {Comparison(0, 1, 1.0),
                                        Comparison(0, 2, 3.0)};
  EXPECT_DOUBLE_EQ(MeanWeight(cmps), 2.0);
}

// ---------------------------------------------------------------------------
// BlockingGraph
// ---------------------------------------------------------------------------

TEST_F(WeightingFixture, GraphBuildsUndirectedEdges) {
  BlockingGraph graph;
  const size_t edges = graph.Build(Ctx(WeightingScheme::kCbs),
                                   static_cast<ProfileId>(profiles_.size()));
  // Edges: (0,1) CBS 2; (0,2) CBS 1; (1,2) CBS 1; (2,3) CBS 1.
  EXPECT_EQ(edges, 4u);
  EXPECT_EQ(graph.num_edges(), 4u);
  EXPECT_EQ(graph.Edges(0).size(), 2u);
  EXPECT_EQ(graph.Edges(2).size(), 3u);
  EXPECT_EQ(graph.Edges(3).size(), 1u);
}

TEST_F(WeightingFixture, GraphEdgesSortedByWeightDesc) {
  BlockingGraph graph;
  graph.Build(Ctx(WeightingScheme::kCbs),
              static_cast<ProfileId>(profiles_.size()));
  const auto& edges = graph.Edges(0);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_GE(edges[0].weight, edges[1].weight);
  EXPECT_DOUBLE_EQ(edges[0].weight, 2.0);  // (0,1)
}

TEST_F(WeightingFixture, GraphNodeWeightIsBestEdge) {
  BlockingGraph graph;
  graph.Build(Ctx(WeightingScheme::kCbs),
              static_cast<ProfileId>(profiles_.size()));
  EXPECT_DOUBLE_EQ(graph.NodeWeight(0), 2.0);
  EXPECT_DOUBLE_EQ(graph.NodeWeight(3), 1.0);
}

TEST_F(WeightingFixture, GraphRespectsLimit) {
  BlockingGraph graph;
  graph.Build(Ctx(WeightingScheme::kCbs), 2);
  EXPECT_EQ(graph.num_nodes(), 2u);
  EXPECT_EQ(graph.num_edges(), 1u);  // only (0,1)
}

}  // namespace
}  // namespace pier
