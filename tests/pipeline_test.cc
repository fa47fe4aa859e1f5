// Tests for the PierPipeline facade: ingest, emission with adaptive K,
// executed-comparison dedup, idle ticks, and eventual completeness on
// tiny crafted datasets.

#include <set>

#include <gtest/gtest.h>

#include "core/pier_pipeline.h"
#include "strategy_test_name.h"

namespace pier {
namespace {

EntityProfile Raw(ProfileId id, SourceId source, std::string title) {
  return EntityProfile(id, source, {{"title", std::move(title)}});
}

PierOptions SmallOptions(PierStrategy strategy,
                         DatasetKind kind = DatasetKind::kDirty) {
  PierOptions options;
  options.kind = kind;
  options.strategy = strategy;
  return options;
}

class PipelineStrategyTest : public ::testing::TestWithParam<PierStrategy> {};

TEST_P(PipelineStrategyTest, IngestTokenizesAndBlocks) {
  PierPipeline pipeline(SmallOptions(GetParam()));
  const WorkStats stats = pipeline.Ingest(
      {Raw(0, 0, "alpha beta"), Raw(1, 0, "beta gamma")});
  EXPECT_EQ(stats.profiles, 2u);
  EXPECT_EQ(stats.tokens, 4u);
  EXPECT_EQ(pipeline.profiles().size(), 2u);
  EXPECT_EQ(pipeline.dictionary().size(), 3u);
  EXPECT_EQ(pipeline.blocks().block(pipeline.dictionary().Lookup("beta"))
                .size(),
            2u);
}

TEST_P(PipelineStrategyTest, EmitsSharedTokenPair) {
  PierPipeline pipeline(SmallOptions(GetParam()));
  pipeline.Ingest({Raw(0, 0, "alpha beta"), Raw(1, 0, "alpha beta")});
  const auto batch = pipeline.EmitBatch(10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(PairKey(batch[0].x, batch[0].y), PairKey(0, 1));
}

TEST_P(PipelineStrategyTest, NeverEmitsSamePairTwice) {
  PierPipeline pipeline(SmallOptions(GetParam()));
  pipeline.Ingest({Raw(0, 0, "alpha beta"), Raw(1, 0, "alpha beta"),
                   Raw(2, 0, "alpha gamma")});
  std::set<uint64_t> seen;
  // Emit across many ticks: the executed filter must dedup across the
  // scanner fallback re-offering block pairs.
  for (int round = 0; round < 10; ++round) {
    for (const auto& c : pipeline.EmitBatch(100)) {
      EXPECT_TRUE(seen.insert(c.Key()).second)
          << "duplicate pair " << c.x << "," << c.y;
    }
    pipeline.Tick();
  }
  EXPECT_GE(seen.size(), 2u);
}

TEST_P(PipelineStrategyTest, EventuallyCoversAllCoBlockedPairs) {
  // 4 profiles sharing one token: all 6 pairs must eventually be
  // emitted (eventual quality) across ticks.
  PierPipeline pipeline(SmallOptions(GetParam()));
  pipeline.Ingest({Raw(0, 0, "omega one"), Raw(1, 0, "omega two"),
                   Raw(2, 0, "omega three"), Raw(3, 0, "omega four")});
  std::set<uint64_t> seen;
  for (int round = 0; round < 30; ++round) {
    for (const auto& c : pipeline.EmitBatch(100)) seen.insert(c.Key());
    pipeline.Tick();
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST_P(PipelineStrategyTest, CrossIncrementPairsEmitted) {
  PierPipeline pipeline(SmallOptions(GetParam()));
  pipeline.Ingest({Raw(0, 0, "unique alpha")});
  pipeline.EmitBatch(10);
  pipeline.Ingest({Raw(1, 0, "unique beta")});
  std::set<uint64_t> seen;
  for (int round = 0; round < 10; ++round) {
    for (const auto& c : pipeline.EmitBatch(100)) seen.insert(c.Key());
    pipeline.Tick();
  }
  EXPECT_TRUE(seen.count(PairKey(0, 1)));
}

TEST_P(PipelineStrategyTest, CleanCleanSkipsSameSourcePairs) {
  PierPipeline pipeline(
      SmallOptions(GetParam(), DatasetKind::kCleanClean));
  pipeline.Ingest({Raw(0, 0, "shared token"), Raw(1, 0, "shared token"),
                   Raw(2, 1, "shared token")});
  std::set<uint64_t> seen;
  for (int round = 0; round < 10; ++round) {
    for (const auto& c : pipeline.EmitBatch(100)) {
      EXPECT_NE(pipeline.profiles().Get(c.x).source,
                pipeline.profiles().Get(c.y).source);
      seen.insert(c.Key());
    }
    pipeline.Tick();
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST_P(PipelineStrategyTest, EmitBatchRespectsK) {
  PierPipeline pipeline(SmallOptions(GetParam()));
  std::vector<EntityProfile> profiles;
  for (ProfileId id = 0; id < 10; ++id) {
    profiles.push_back(Raw(id, 0, "popular token" + std::to_string(id)));
  }
  pipeline.Ingest(std::move(profiles));
  EXPECT_LE(pipeline.EmitBatch(3).size(), 3u);
}

TEST_P(PipelineStrategyTest, CountsEmittedComparisons) {
  PierPipeline pipeline(SmallOptions(GetParam()));
  pipeline.Ingest({Raw(0, 0, "alpha beta"), Raw(1, 0, "alpha beta")});
  EXPECT_EQ(pipeline.comparisons_emitted(), 0u);
  pipeline.EmitBatch(10);
  EXPECT_EQ(pipeline.comparisons_emitted(), 1u);
}

TEST_P(PipelineStrategyTest, ExactFilterAblationBehavesIdentically) {
  PierPipeline pipeline(SmallOptions(GetParam()));
  pipeline.Ingest({Raw(0, 0, "alpha beta"), Raw(1, 0, "alpha beta")});
  EXPECT_EQ(pipeline.EmitBatch(10).size(), 1u);
  pipeline.Tick();
  EXPECT_TRUE(pipeline.EmitBatch(10).empty());  // deduped
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PipelineStrategyTest,
                         ::testing::ValuesIn(AllStrategies()),
                         StrategyTestName);

TEST(PipelineTest, StrategyNames) {
  EXPECT_STREQ(ToString(PierStrategy::kIPcs), "I-PCS");
  EXPECT_STREQ(ToString(PierStrategy::kIPbs), "I-PBS");
  EXPECT_STREQ(ToString(PierStrategy::kIPes), "I-PES");
  EXPECT_STREQ(ToString(PierStrategy::kSperSk), "SPER-SK");
  EXPECT_STREQ(ToString(PierStrategy::kFbPcs), "FB-PCS");
  ASSERT_EQ(AllStrategies().size(), 5u);
  EXPECT_STREQ(KnownAlgorithmNames(), "I-PCS, I-PBS, I-PES, SPER-SK, FB-PCS");
}

TEST(PipelineTest, AdaptiveKFeedbackFlows) {
  PierPipeline pipeline(SmallOptions(PierStrategy::kIPes));
  pipeline.ReportArrival(0.0);
  pipeline.ReportArrival(1.0);
  pipeline.Ingest({Raw(0, 0, "alpha"), Raw(1, 0, "alpha")});
  const std::vector<Comparison> batch = pipeline.EmitBatch(10);
  ASSERT_EQ(batch.size(), 1u);
  pipeline.RecordVerdicts(batch, {MatchVerdict{true, 1}}, 0.001);
  EXPECT_DOUBLE_EQ(pipeline.adaptive_k().MeanInterarrival(), 1.0);
  EXPECT_GT(pipeline.adaptive_k().FindK(), 0u);
}

TEST(PipelineTest, EmitBatchUsesAdaptiveKByDefault) {
  PierOptions options = SmallOptions(PierStrategy::kIPes);
  options.adaptive_k.initial_k = 1;
  PierPipeline pipeline(options);
  pipeline.Ingest({Raw(0, 0, "x alpha"), Raw(1, 0, "x alpha"),
                   Raw(2, 0, "x beta")});
  EXPECT_EQ(pipeline.EmitBatch().size(), 1u);  // K = initial_k = 1
}

}  // namespace
}  // namespace pier
