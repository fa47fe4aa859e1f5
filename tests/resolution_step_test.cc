// The resolution step (DESIGN.md §4): EmitBatch -> ParallelMatchExecutor
// ::Execute -> PierPipeline::RecordVerdicts. Pins that the batched
// feedback call is exactly the per-pair calls closed-loop drivers still
// make, for every strategy in the table, and that it is what makes
// FB-PCS schedule differently from I-PCS.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pier_pipeline.h"
#include "datagen/generators.h"
#include "persist/snapshot.h"
#include "similarity/matcher.h"
#include "similarity/parallel_executor.h"
#include "strategy_test_name.h"

namespace pier {
namespace {

Dataset SmallCensus() {
  CensusOptions options;
  options.num_records = 600;
  options.seed = 11;
  return GenerateCensus(options);
}

std::string SnapshotBytes(const PierPipeline& pipeline) {
  persist::SnapshotBuilder builder;
  pipeline.Snapshot(builder);
  return builder.Bytes();
}

std::vector<uint64_t> Keys(const std::vector<Comparison>& batch) {
  std::vector<uint64_t> keys;
  keys.reserve(batch.size());
  for (const Comparison& c : batch) keys.push_back(c.Key());
  return keys;
}

class ResolutionStepTest : public ::testing::TestWithParam<PierStrategy> {};

// Two pipelines run the same stream; one gets RecordVerdicts per batch,
// the other the per-pair RecordVerdict + RecordMatch calls plus the
// findK() batch-cost report. Emission sequences and the final snapshot
// bytes (prioritizer, findK controller, cluster index) must agree.
TEST_P(ResolutionStepTest, RecordVerdictsEqualsPerPairFeedback) {
  const Dataset dataset = SmallCensus();
  PierOptions options;
  options.kind = dataset.kind;
  options.strategy = GetParam();
  PierPipeline batched(options);
  PierPipeline per_pair(options);
  const JaccardMatcher matcher(0.35);
  const ParallelMatchExecutor executor(&matcher, 1);

  uint64_t steps = 0;
  uint64_t positives = 0;
  const auto step = [&]() {
    const std::vector<Comparison> batch = batched.EmitBatch();
    EXPECT_EQ(Keys(per_pair.EmitBatch()), Keys(batch));
    if (batch.empty()) return false;
    const std::vector<MatchVerdict> verdicts =
        executor.Execute(batch, batched.profiles());
    const double seconds = 1e-4 * static_cast<double>(++steps % 7 + 1);
    batched.RecordVerdicts(batch, verdicts, seconds);
    for (size_t i = 0; i < batch.size(); ++i) {
      per_pair.RecordVerdict(batch[i].x, batch[i].y, verdicts[i].is_match);
      if (verdicts[i].is_match) {
        per_pair.RecordMatch(batch[i].x, batch[i].y);
        ++positives;
      }
    }
    per_pair.adaptive_k().OnBatchProcessed(batch.size(), seconds);
    return true;
  };

  const std::vector<Increment> increments = SplitIntoIncrements(dataset, 6);
  for (size_t n = 0; n < increments.size(); ++n) {
    const Increment& inc = increments[n];
    const std::vector<EntityProfile> profiles(
        dataset.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        dataset.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    batched.ReportArrival(0.01 * static_cast<double>(n));
    per_pair.ReportArrival(0.01 * static_cast<double>(n));
    batched.Ingest(profiles);
    per_pair.Ingest(profiles);
    for (int i = 0; i < 3; ++i) {
      if (!step()) break;
    }
  }
  batched.NotifyStreamEnd();
  per_pair.NotifyStreamEnd();
  while (step()) {
  }
  EXPECT_GT(positives, 0u);
  EXPECT_GT(batched.clusters().NumNonTrivialClusters(), 0u);
  EXPECT_EQ(SnapshotBytes(batched), SnapshotBytes(per_pair));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ResolutionStepTest,
                         ::testing::ValuesIn(AllStrategies()),
                         StrategyTestName);

// The emitted pair sequence of a plain emit -> Execute -> RecordVerdicts
// loop, with or without the feedback call.
std::vector<uint64_t> PlainLoopSequence(PierStrategy strategy, bool feedback) {
  const Dataset dataset = SmallCensus();
  PierOptions options;
  options.kind = dataset.kind;
  options.strategy = strategy;
  PierPipeline pipeline(options);
  const JaccardMatcher matcher(0.35);
  const ParallelMatchExecutor executor(&matcher, 1);
  std::vector<uint64_t> sequence;
  const auto drain = [&](bool full) {
    for (;;) {
      const std::vector<Comparison> batch = pipeline.EmitBatch(64);
      if (batch.empty()) return;
      const std::vector<uint64_t> keys = Keys(batch);
      sequence.insert(sequence.end(), keys.begin(), keys.end());
      const std::vector<MatchVerdict> verdicts =
          executor.Execute(batch, pipeline.profiles());
      if (feedback) pipeline.RecordVerdicts(batch, verdicts, 1e-4);
      if (!full) return;
    }
  };
  for (const Increment& inc : SplitIntoIncrements(dataset, 10)) {
    pipeline.Ingest(std::vector<EntityProfile>(
        dataset.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        dataset.profiles.begin() + static_cast<ptrdiff_t>(inc.end)));
    drain(/*full=*/false);
  }
  pipeline.NotifyStreamEnd();
  drain(/*full=*/true);
  return sequence;
}

// Regression: a driver that skipped the feedback call ran FB-PCS as
// I-PCS. Through the resolution step the two schedules must differ;
// without it they coincide, so the difference is the feedback's doing.
TEST(ResolutionLoopTest, FbPcsDiffersFromIPcsOnlyThroughFeedback) {
  const std::vector<uint64_t> ipcs =
      PlainLoopSequence(PierStrategy::kIPcs, /*feedback=*/true);
  ASSERT_FALSE(ipcs.empty());
  EXPECT_NE(PlainLoopSequence(PierStrategy::kFbPcs, /*feedback=*/true), ipcs);
  EXPECT_EQ(PlainLoopSequence(PierStrategy::kFbPcs, /*feedback=*/false), ipcs);
}

}  // namespace
}  // namespace pier
