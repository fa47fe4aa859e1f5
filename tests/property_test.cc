// Randomized property tests across module boundaries:
//  * pipeline fuzz -- random increment schedules against every
//    strategy, checking emission invariants (no duplicate pairs, valid
//    ids, cross-source discipline);
//  * simulator invariants -- curves are monotone, matches bounded by
//    the ground truth;
//  * robustness / failure injection -- degenerate profiles (empty
//    values, huge values, binary junk, token-free) must not break the
//    pipeline.

#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "core/pier_pipeline.h"
#include "datagen/generators.h"
#include "similarity/matcher.h"
#include "stream/pier_adapter.h"
#include "stream/stream_simulator.h"
#include "util/rng.h"

namespace pier {
namespace {

class PipelineFuzzTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, PierStrategy>> {};

TEST_P(PipelineFuzzTest, EmissionInvariantsHold) {
  const auto [seed, strategy] = GetParam();
  Rng rng(seed);

  const DatasetKind kind =
      rng.Bernoulli(0.5) ? DatasetKind::kDirty : DatasetKind::kCleanClean;
  PierOptions options;
  options.kind = kind;
  options.strategy = strategy;
  // Exercise small bounded queues too.
  options.prioritizer.cmp_index_capacity = 1 << (4 + rng.UniformInt(0, 8));
  options.prioritizer.per_entity_capacity = 1 + rng.UniformInt(0, 15);
  PierPipeline pipeline(options);

  // Random stream: profiles draw 1-4 tokens from a tiny vocabulary so
  // collisions (blocks) are frequent.
  ProfileId next_id = 0;
  std::set<uint64_t> emitted;
  for (int increment = 0; increment < 12; ++increment) {
    std::vector<EntityProfile> profiles;
    const size_t count = 1 + rng.UniformInt(0, 7);
    for (size_t i = 0; i < count; ++i) {
      std::string text;
      const size_t tokens = 1 + rng.UniformInt(0, 3);
      for (size_t t = 0; t < tokens; ++t) {
        text += " word" + std::to_string(rng.UniformInt(0, 11));
      }
      const SourceId source =
          kind == DatasetKind::kDirty
              ? 0
              : static_cast<SourceId>(rng.UniformInt(0, 1));
      profiles.emplace_back(next_id++, source,
                            std::vector<Attribute>{{"text", text}});
    }
    pipeline.Ingest(std::move(profiles));

    // Random amount of draining, sometimes none.
    const size_t k = rng.UniformInt(0, 40);
    for (const auto& c : pipeline.EmitBatch(k)) {
      ASSERT_NE(c.x, c.y);
      ASSERT_LT(c.x, next_id);
      ASSERT_LT(c.y, next_id);
      ASSERT_TRUE(emitted.insert(c.Key()).second)
          << "duplicate emission " << c.x << "," << c.y;
      if (kind == DatasetKind::kCleanClean) {
        ASSERT_NE(pipeline.profiles().Get(c.x).source,
                  pipeline.profiles().Get(c.y).source);
      }
    }
    if (rng.Bernoulli(0.3)) pipeline.Tick();
  }

  // Full drain: still no duplicates, and emitted counter consistent.
  for (int round = 0; round < 50; ++round) {
    const auto batch = pipeline.EmitBatch(1000);
    if (batch.empty()) break;
    for (const auto& c : batch) {
      ASSERT_TRUE(emitted.insert(c.Key()).second);
    }
  }
  EXPECT_EQ(pipeline.comparisons_emitted(), emitted.size());
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, PipelineFuzzTest,
    ::testing::Combine(::testing::Values(1u, 7u, 21u, 42u, 77u, 99u),
                       ::testing::ValuesIn(AllStrategies())));

class SimulatorInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorInvariantTest, CurvesMonotoneAndBounded) {
  Rng rng(GetParam());
  BibliographicOptions data_options;
  data_options.source0_count = 80 + rng.UniformInt(0, 120);
  data_options.source1_count = 80 + rng.UniformInt(0, 120);
  data_options.seed = rng.NextU64();
  const Dataset d = GenerateBibliographic(data_options);

  SimulatorOptions sim_options;
  sim_options.num_increments = 1 + rng.UniformInt(0, 30);
  sim_options.increments_per_second =
      rng.Bernoulli(0.5) ? 0.0 : 1.0 + rng.UniformDouble() * 20.0;
  sim_options.cost_mode = CostMeter::Mode::kModeled;
  const StreamSimulator sim(&d, sim_options);

  PierOptions options;
  options.kind = d.kind;
  options.strategy = static_cast<PierStrategy>(rng.UniformInt(0, 2));
  PierAdapter alg(options);
  const JaccardMatcher matcher(0.4);
  const RunResult r = sim.Run(alg, matcher);

  ASSERT_FALSE(r.curve.empty());
  const auto& points = r.curve.points();
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].time, points[i - 1].time);
    EXPECT_GE(points[i].comparisons, points[i - 1].comparisons);
    EXPECT_GE(points[i].matches_found, points[i - 1].matches_found);
  }
  EXPECT_LE(r.matches_found, r.total_true_matches);
  EXPECT_LE(r.matches_found, r.comparisons_executed);
  EXPECT_EQ(points.back().matches_found, r.matches_found);
  EXPECT_LE(r.FinalPc(), 1.0);
  if (r.stream_consumed_at >= 0.0) {
    EXPECT_LE(r.stream_consumed_at, r.end_time);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorInvariantTest,
                         ::testing::Values(3u, 13u, 23u, 33u, 43u));

// ---------------------------------------------------------------------------
// Failure injection / degenerate inputs
// ---------------------------------------------------------------------------

class DegenerateInputTest : public ::testing::TestWithParam<PierStrategy> {};

TEST_P(DegenerateInputTest, HandlesProfilesWithoutUsableTokens) {
  PierOptions options;
  options.strategy = GetParam();
  PierPipeline pipeline(options);
  pipeline.Ingest({EntityProfile(0, 0, {{"a", ""}}),
                   EntityProfile(1, 0, {{"a", "! @ # $"}}),
                   EntityProfile(2, 0, {})});
  EXPECT_TRUE(pipeline.EmitBatch(10).empty());
  pipeline.Tick();
  EXPECT_TRUE(pipeline.EmitBatch(10).empty());
}

TEST_P(DegenerateInputTest, HandlesHugeAndBinaryValues) {
  PierOptions options;
  options.strategy = GetParam();
  PierPipeline pipeline(options);
  std::string huge(100000, 'x');
  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  pipeline.Ingest({EntityProfile(0, 0, {{"blob", huge + " shared"}}),
                   EntityProfile(1, 0, {{"bin", binary + " shared"}})});
  const auto batch = pipeline.EmitBatch(10);
  ASSERT_EQ(batch.size(), 1u);  // they share the "shared" token
  const EditDistanceMatcher matcher(0.5, 256);
  // The matcher caps text length, so even the huge value is cheap.
  EXPECT_GE(matcher.Similarity(pipeline.profiles().Get(0),
                               pipeline.profiles().Get(1)),
            0.0);
}

TEST_P(DegenerateInputTest, ManyIdenticalProfiles) {
  PierOptions options;
  options.strategy = GetParam();
  options.kind = DatasetKind::kDirty;
  PierPipeline pipeline(options);
  std::vector<EntityProfile> profiles;
  for (ProfileId id = 0; id < 30; ++id) {
    profiles.emplace_back(id, 0,
                          std::vector<Attribute>{{"n", "same exact text"}});
  }
  pipeline.Ingest(std::move(profiles));
  std::set<uint64_t> seen;
  for (int round = 0; round < 100; ++round) {
    const auto batch = pipeline.EmitBatch(1000);
    if (batch.empty()) break;
    for (const auto& c : batch) {
      EXPECT_TRUE(seen.insert(c.Key()).second);
    }
  }
  EXPECT_LE(seen.size(), 30u * 29u / 2u);
  EXPECT_GE(seen.size(), 29u);  // at least a spanning set of the clique
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, DegenerateInputTest,
                         ::testing::ValuesIn(AllStrategies()));

}  // namespace
}  // namespace pier
