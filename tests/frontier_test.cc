// Tests for the src/frontier/ prioritizer family (DESIGN.md section
// 10): the strategy registry (KnownAlgorithmNames / ParseAlgorithmName
// round trips), SPER-SK's fixed-seed determinism contract -- identical
// emission at 1/2/8 execution threads, seed-sensitive otherwise --
// canonical snapshot bytes for both strategies, FB-PCS's verdict
// feedback (block promotion through the hot queue), and the
// `frontier.*` metrics surface.

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/strategy_selector.h"
#include "datagen/generators.h"
#include "obs/metrics.h"
#include "persist/snapshot.h"
#include "similarity/matcher.h"
#include "stream/pier_adapter.h"
#include "stream/stream_simulator.h"

namespace pier {
namespace {

// ---------------------------------------------------------------------------
// Strategy registry
// ---------------------------------------------------------------------------

std::vector<std::string> SplitNames(const std::string& csv) {
  std::vector<std::string> names;
  size_t pos = 0;
  while (pos < csv.size()) {
    const size_t end = csv.find(", ", pos);
    if (end == std::string::npos) {
      names.push_back(csv.substr(pos));
      break;
    }
    names.push_back(csv.substr(pos, end - pos));
    pos = end + 2;
  }
  return names;
}

TEST(FrontierRegistryTest, EveryKnownNameParsesAndRoundTrips) {
  const std::vector<std::string> names = SplitNames(KnownAlgorithmNames());
  EXPECT_EQ(names.size(), 5u);
  for (const std::string& name : names) {
    PierStrategy strategy;
    ASSERT_TRUE(ParseAlgorithmName(name, &strategy)) << name;
    EXPECT_EQ(name, ToString(strategy));
    // Case-insensitive: the CLI documents lowercase spellings.
    std::string lower = name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    PierStrategy from_lower;
    ASSERT_TRUE(ParseAlgorithmName(lower, &from_lower)) << lower;
    EXPECT_EQ(from_lower, strategy);
  }
}

TEST(FrontierRegistryTest, FrontierStrategiesAreRegistered) {
  PierStrategy strategy;
  ASSERT_TRUE(ParseAlgorithmName("sper-sk", &strategy));
  EXPECT_EQ(strategy, PierStrategy::kSperSk);
  ASSERT_TRUE(ParseAlgorithmName("FB-PCS", &strategy));
  EXPECT_EQ(strategy, PierStrategy::kFbPcs);
}

TEST(FrontierRegistryTest, UnknownNamesRejected) {
  PierStrategy strategy = PierStrategy::kIPcs;
  EXPECT_FALSE(ParseAlgorithmName("", &strategy));
  EXPECT_FALSE(ParseAlgorithmName("bogus", &strategy));
  EXPECT_FALSE(ParseAlgorithmName("I-PXS", &strategy));
  EXPECT_FALSE(ParseAlgorithmName("sper", &strategy));
  EXPECT_EQ(strategy, PierStrategy::kIPcs);  // untouched on failure
}

// ---------------------------------------------------------------------------
// SPER-SK determinism
// ---------------------------------------------------------------------------

Dataset SmallCleanClean() {
  BibliographicOptions options;
  options.source0_count = 150;
  options.source1_count = 130;
  options.seed = 5;
  return GenerateBibliographic(options);
}

// Power-law block sizes push profiles past the exact-enumeration
// budget, so the sampling path (and hence the RNG) actually engages.
Dataset SkewedCleanClean() {
  DbpediaOptions options;
  options.source0_count = 250;
  options.source1_count = 250;
  options.vocabulary_size = 400;
  options.seed = 13;
  return GenerateDbpedia(options);
}

PierOptions SperSkOptions(DatasetKind kind, uint64_t seed) {
  PierOptions options;
  options.kind = kind;
  options.strategy = PierStrategy::kSperSk;
  options.prioritizer.frontier_seed = seed;
  return options;
}

// Streams the dataset through a SPER-SK pipeline in 8 increments,
// draining one batch per increment and everything at the end; returns
// the emitted pair sequence (the strategy's externally visible order).
std::vector<std::pair<ProfileId, ProfileId>> EmissionSequence(
    const Dataset& dataset, uint64_t seed) {
  PierPipeline pipeline(SperSkOptions(dataset.kind, seed));
  std::vector<std::pair<ProfileId, ProfileId>> sequence;
  const auto record = [&](const std::vector<Comparison>& batch) {
    for (const Comparison& c : batch) sequence.emplace_back(c.x, c.y);
  };
  for (const Increment& inc : SplitIntoIncrements(dataset, 8)) {
    std::vector<EntityProfile> chunk(
        dataset.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        dataset.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    pipeline.Ingest(std::move(chunk));
    record(pipeline.EmitBatch(64, nullptr));
  }
  pipeline.NotifyStreamEnd();
  for (;;) {
    const std::vector<Comparison> batch = pipeline.EmitBatch(256, nullptr);
    if (batch.empty()) break;
    record(batch);
  }
  return sequence;
}

TEST(SperSkTest, SameSeedSameEmissionSequence) {
  const Dataset dataset = SkewedCleanClean();
  const auto a = EmissionSequence(dataset, 42);
  const auto b = EmissionSequence(dataset, 42);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(SperSkTest, DifferentSeedsDiverge) {
  const Dataset dataset = SkewedCleanClean();
  const auto a = EmissionSequence(dataset, 42);
  const auto b = EmissionSequence(dataset, 7);
  EXPECT_NE(a, b);
}

void ExpectSameRun(const RunResult& expected, const RunResult& actual,
                   const std::string& context) {
  EXPECT_EQ(expected.comparisons_executed, actual.comparisons_executed)
      << context;
  EXPECT_EQ(expected.matches_found, actual.matches_found) << context;
  EXPECT_EQ(expected.matcher_positives, actual.matcher_positives) << context;
  ASSERT_EQ(expected.curve.points().size(), actual.curve.points().size())
      << context;
  for (size_t i = 0; i < expected.curve.points().size(); ++i) {
    const CurvePoint& e = expected.curve.points()[i];
    const CurvePoint& a = actual.curve.points()[i];
    EXPECT_EQ(e.time, a.time) << context << " point " << i;
    EXPECT_EQ(e.comparisons, a.comparisons) << context << " point " << i;
    EXPECT_EQ(e.matches_found, a.matches_found) << context << " point " << i;
  }
}

TEST(SperSkTest, FixedSeedDeterministicAcrossExecutionThreads) {
  // The determinism contract (PrioritizerOptions::frontier_seed): same
  // seed + same increments => identical curve at every execution
  // thread count, under the modeled cost meter.
  const Dataset dataset = SmallCleanClean();
  const auto matcher = MakeMatcher("JS", 0.5);
  RunResult baseline;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SimulatorOptions sim_options;
    sim_options.num_increments = 10;
    sim_options.cost_mode = CostMeter::Mode::kModeled;
    sim_options.execution_threads = threads;
    const StreamSimulator simulator(&dataset, sim_options);
    PierOptions options;
    options.kind = dataset.kind;
    options.strategy = PierStrategy::kSperSk;
    PierAdapter algorithm(options);
    const RunResult result = simulator.Run(algorithm, *matcher);
    EXPECT_GT(result.comparisons_executed, 0u);
    if (threads == 1) {
      baseline = result;
    } else {
      ExpectSameRun(baseline, result,
                    "threads=" + std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// Canonical snapshot bytes
// ---------------------------------------------------------------------------

std::string SnapshotBytes(const PierPipeline& pipeline) {
  persist::SnapshotBuilder builder;
  pipeline.Snapshot(builder);
  return builder.Bytes();
}

void CheckCanonicalSnapshot(PierStrategy strategy) {
  SCOPED_TRACE(ToString(strategy));
  const Dataset dataset = SmallCleanClean();
  PierOptions options;
  options.kind = dataset.kind;
  options.strategy = strategy;
  PierPipeline pipeline(options);
  const JaccardMatcher matcher(0.5);

  // Mid-stream state: half the profiles ingested, one batch drained,
  // verdicts fed back (populates FB-PCS's posterior tables and
  // advances SPER-SK's RNG).
  std::vector<EntityProfile> half(
      dataset.profiles.begin(),
      dataset.profiles.begin() +
          static_cast<ptrdiff_t>(dataset.profiles.size() / 2));
  pipeline.Ingest(std::move(half));
  const std::vector<Comparison> batch = pipeline.EmitBatch(200, nullptr);
  ASSERT_FALSE(batch.empty());
  for (const Comparison& c : batch) {
    pipeline.RecordVerdict(c.x, c.y,
                           matcher.Matches(pipeline.profiles().Get(c.x),
                                           pipeline.profiles().Get(c.y)));
  }

  // Snapshot is pure: two calls produce identical bytes.
  const std::string bytes = SnapshotBytes(pipeline);
  EXPECT_EQ(SnapshotBytes(pipeline), bytes);

  // Restore re-serializes canonically (byte-identical)...
  persist::SnapshotReader reader;
  std::string error;
  std::istringstream in(bytes);
  ASSERT_TRUE(reader.Parse(in, &error)) << error;
  PierPipeline restored(options);
  ASSERT_TRUE(restored.Restore(reader, &error)) << error;
  EXPECT_EQ(SnapshotBytes(restored), bytes);

  // ...and continues with the exact emission stream of the original.
  for (int round = 0; round < 4; ++round) {
    const std::vector<Comparison> expected = pipeline.EmitBatch(64, nullptr);
    const std::vector<Comparison> actual = restored.EmitBatch(64, nullptr);
    ASSERT_EQ(expected.size(), actual.size()) << "round " << round;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].x, actual[i].x) << "round " << round;
      EXPECT_EQ(expected[i].y, actual[i].y) << "round " << round;
    }
  }
}

TEST(FrontierSnapshotTest, SperSkCanonicalBytes) {
  CheckCanonicalSnapshot(PierStrategy::kSperSk);
}

TEST(FrontierSnapshotTest, FbPcsCanonicalBytes) {
  CheckCanonicalSnapshot(PierStrategy::kFbPcs);
}

// ---------------------------------------------------------------------------
// FB-PCS verdict feedback
// ---------------------------------------------------------------------------

TEST(FbPcsTest, VerdictFeedbackPromotesHotBlock) {
  obs::MetricsRegistry registry;
  PierOptions options;
  options.kind = DatasetKind::kDirty;
  options.strategy = PierStrategy::kFbPcs;
  options.metrics = &registry;
  PierPipeline pipeline(options);

  // One hot block: 8 profiles sharing token "hub". Plus noise pairs
  // sharing "noise" that will report non-matches, keeping the global
  // prior low so the hub posterior clears the promotion threshold.
  std::vector<EntityProfile> profiles;
  for (ProfileId id = 0; id < 8; ++id) {
    profiles.emplace_back(
        id, 0, std::vector<Attribute>{{"n", "hub core" + std::to_string(id)}});
  }
  for (ProfileId id = 8; id < 24; ++id) {
    profiles.emplace_back(
        id, 0,
        std::vector<Attribute>{{"n", "noise fill" + std::to_string(id)}});
  }
  pipeline.Ingest(std::move(profiles));

  // 40 negative verdicts over noise pairs, then positives on hub pairs.
  size_t negatives = 0;
  for (ProfileId a = 8; a < 24 && negatives < 40; ++a) {
    for (ProfileId b = a + 1; b < 24 && negatives < 40; ++b) {
      pipeline.RecordVerdict(a, b, false);
      ++negatives;
    }
  }
  EXPECT_EQ(registry.GetCounter("frontier.blocks_promoted")->Value(), 0u);
  size_t positives = 0;
  for (ProfileId a = 0; a < 8 && positives < 10; ++a) {
    for (ProfileId b = a + 1; b < 8 && positives < 10; ++b) {
      pipeline.RecordVerdict(a, b, true);
      ++positives;
    }
  }
  EXPECT_EQ(registry.GetCounter("frontier.feedback_verdicts")->Value(),
            negatives + positives);
  EXPECT_GE(registry.GetCounter("frontier.blocks_promoted")->Value(), 1u);

  // The next prioritizer update serves the promoted block wholesale.
  pipeline.Tick();
  EXPECT_GT(registry.GetCounter("frontier.hot_pairs")->Value(), 0u);
}

TEST(SperSkTest, MetricsRegistered) {
  obs::MetricsRegistry registry;
  const Dataset dataset = SkewedCleanClean();
  PierOptions options = SperSkOptions(dataset.kind, 42);
  options.metrics = &registry;
  PierPipeline pipeline(options);
  std::vector<EntityProfile> profiles = dataset.profiles;
  pipeline.Ingest(std::move(profiles));
  pipeline.NotifyStreamEnd();
  while (!pipeline.EmitBatch(256, nullptr).empty()) {
  }
  // The skewed dataset exercises both the sampling path and the exact
  // path for small neighbourhoods.
  EXPECT_GT(registry.GetCounter("frontier.samples_accepted")->Value(), 0u);
  EXPECT_GT(registry.GetCounter("frontier.samples_rejected")->Value(), 0u);
  EXPECT_GT(registry.GetCounter("frontier.exact_profiles")->Value(), 0u);
}

}  // namespace
}  // namespace pier
