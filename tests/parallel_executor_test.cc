// ParallelMatchExecutor: the verdict stream must be *bit-identical* to
// the sequential matcher's, in emission order, for every thread count
// (the determinism guarantee the PC-over-time curves rely on). Also
// covers the executor-backed StreamSimulator path and exception
// propagation from matcher failures.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pier_pipeline.h"
#include "datagen/generators.h"
#include "similarity/matcher.h"
#include "similarity/parallel_executor.h"
#include "stream/pier_adapter.h"
#include "stream/stream_simulator.h"

namespace pier {
namespace {

// Pipeline-emitted comparisons over a seeded dbpedia-like dataset
// (long ragged profiles — the expensive-matcher workload).
struct Workload {
  Dataset dataset;
  std::unique_ptr<PierPipeline> pipeline;
  std::vector<Comparison> comparisons;
};

Workload MakeWorkload(size_t target_comparisons) {
  Workload w;
  DbpediaOptions data_options;
  data_options.source0_count = 300;
  data_options.source1_count = 400;
  w.dataset = GenerateDbpedia(data_options);

  PierOptions options;
  options.kind = w.dataset.kind;
  options.strategy = PierStrategy::kIPes;
  w.pipeline = std::make_unique<PierPipeline>(options);
  std::vector<EntityProfile> all = w.dataset.profiles;
  w.pipeline->Ingest(std::move(all));
  w.pipeline->NotifyStreamEnd();
  while (w.comparisons.size() < target_comparisons) {
    const auto batch = w.pipeline->EmitBatch(512);
    if (batch.empty()) break;
    w.comparisons.insert(w.comparisons.end(), batch.begin(), batch.end());
  }
  return w;
}

std::vector<MatchVerdict> SequentialReference(
    const Matcher& matcher, const std::vector<Comparison>& batch,
    const ProfileStore& profiles) {
  std::vector<MatchVerdict> verdicts(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const EntityProfile& a = profiles.Get(batch[i].x);
    const EntityProfile& b = profiles.Get(batch[i].y);
    verdicts[i].is_match = matcher.Matches(a, b);
    verdicts[i].cost_units = matcher.CostUnits(a, b);
  }
  return verdicts;
}

TEST(ParallelExecutorTest, VerdictStreamMatchesSequentialAtEveryThreadCount) {
  const Workload w = MakeWorkload(3000);
  ASSERT_GT(w.comparisons.size(), 500u);

  const EditDistanceMatcher matcher(0.75, /*max_text_length=*/256);
  const std::vector<MatchVerdict> reference =
      SequentialReference(matcher, w.comparisons, w.pipeline->profiles());

  for (const size_t threads : {1u, 2u, 8u}) {
    const ParallelMatchExecutor executor(&matcher, threads);
    const std::vector<MatchVerdict> verdicts =
        executor.Execute(w.comparisons, w.pipeline->profiles());
    ASSERT_EQ(verdicts.size(), reference.size()) << threads << " threads";
    for (size_t i = 0; i < verdicts.size(); ++i) {
      ASSERT_EQ(verdicts[i].is_match, reference[i].is_match)
          << "i=" << i << " threads=" << threads;
      ASSERT_EQ(verdicts[i].cost_units, reference[i].cost_units)
          << "i=" << i << " threads=" << threads;
    }
  }
}

// The verdict kernel path must reproduce the sequential reference's
// is_match / cost_units streams exactly, for every matcher family,
// threshold, and thread count.
TEST(ParallelExecutorTest, VerdictPathStreamIdenticalAcrossMatchers) {
  const Workload w = MakeWorkload(2000);
  ASSERT_GT(w.comparisons.size(), 500u);

  for (const char* name : {"JS", "ED", "COS"}) {
    for (const double threshold : {0.3, 0.5, 0.8}) {
      const std::unique_ptr<Matcher> matcher =
          std::string(name) == "ED"
              ? std::make_unique<EditDistanceMatcher>(threshold,
                                                      /*max_text_length=*/256)
              : MakeMatcher(name, threshold);
      ASSERT_NE(matcher, nullptr);
      const std::vector<MatchVerdict> reference =
          SequentialReference(*matcher, w.comparisons, w.pipeline->profiles());
      for (const size_t threads : {1u, 2u, 8u}) {
        const ParallelMatchExecutor executor(matcher.get(), threads);
        const std::vector<MatchVerdict> verdicts =
            executor.Execute(w.comparisons, w.pipeline->profiles());
        ASSERT_EQ(verdicts.size(), reference.size());
        for (size_t i = 0; i < verdicts.size(); ++i) {
          ASSERT_EQ(verdicts[i].is_match, reference[i].is_match)
              << name << " t=" << threshold << " threads=" << threads
              << " i=" << i;
          ASSERT_EQ(verdicts[i].cost_units, reference[i].cost_units)
              << name << " t=" << threshold << " threads=" << threads
              << " i=" << i;
        }
      }
    }
  }
}

TEST(ParallelExecutorTest, EmptyBatch) {
  const JaccardMatcher matcher(0.5);
  const ParallelMatchExecutor executor(&matcher, 4);
  ProfileStore store;
  EXPECT_TRUE(executor.Execute(std::vector<Comparison>{}, store).empty());
}

TEST(ParallelExecutorTest, SmallBatchRunsInlineButIdentically) {
  const Workload w = MakeWorkload(40);
  const JaccardMatcher matcher(0.35);
  const auto reference =
      SequentialReference(matcher, w.comparisons, w.pipeline->profiles());
  const ParallelMatchExecutor executor(&matcher, 8);
  const auto verdicts = executor.Execute(w.comparisons, w.pipeline->profiles());
  ASSERT_EQ(verdicts.size(), reference.size());
  for (size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].is_match, reference[i].is_match);
    EXPECT_EQ(verdicts[i].cost_units, reference[i].cost_units);
  }
}

// Same, through the ProfileLookup overload.
TEST(ParallelExecutorTest, EmptyBatchVerdictPath) {
  const JaccardMatcher matcher(0.5);
  const ParallelMatchExecutor executor(&matcher, 4);
  ProfileStore store;
  const ParallelMatchExecutor::ProfileLookup lookup =
      [&store](ProfileId id) -> const EntityProfile& { return store.Get(id); };
  EXPECT_TRUE(executor.Execute(std::vector<Comparison>{}, lookup).empty());
}

class ThrowingMatcher : public Matcher {
 public:
  ThrowingMatcher() : Matcher(0.5) {}
  double Similarity(const EntityProfile&, const EntityProfile&) const override {
    throw std::runtime_error("matcher failure");
  }
  uint64_t CostUnits(const EntityProfile&,
                     const EntityProfile&) const override {
    return 1;
  }
  const char* name() const override { return "THROW"; }
};

TEST(ParallelExecutorTest, PropagatesMatcherExceptions) {
  const Workload w = MakeWorkload(500);
  ASSERT_GT(w.comparisons.size(), 100u);
  const ThrowingMatcher matcher;
  const ParallelMatchExecutor executor(&matcher, 4);
  EXPECT_THROW(executor.Execute(w.comparisons, w.pipeline->profiles()),
               std::runtime_error);
}

// End-to-end determinism: a simulator run with the modeled cost meter
// must produce identical results (curve, counts, virtual time) for
// 1, 2, and 8 execution threads.
TEST(ParallelExecutorTest, SimulatorRunsAreThreadCountInvariant) {
  BibliographicOptions data_options;
  data_options.source0_count = 200;
  data_options.source1_count = 170;
  const Dataset dataset = GenerateBibliographic(data_options);

  const EditDistanceMatcher matcher(0.75, /*max_text_length=*/256);
  auto run = [&](size_t threads) {
    SimulatorOptions sim_options;
    sim_options.num_increments = 10;
    sim_options.cost_mode = CostMeter::Mode::kModeled;
    sim_options.execution_threads = threads;
    const StreamSimulator simulator(&dataset, sim_options);
    PierOptions options;
    options.kind = dataset.kind;
    options.strategy = PierStrategy::kIPes;
    PierAdapter algorithm(options);
    return simulator.Run(algorithm, matcher);
  };

  const RunResult reference = run(1);
  EXPECT_GT(reference.comparisons_executed, 0u);
  for (const size_t threads : {2u, 8u}) {
    const RunResult result = run(threads);
    EXPECT_EQ(result.comparisons_executed, reference.comparisons_executed);
    EXPECT_EQ(result.matches_found, reference.matches_found);
    EXPECT_EQ(result.matcher_positives, reference.matcher_positives);
    EXPECT_EQ(result.end_time, reference.end_time);
    ASSERT_EQ(result.curve.points().size(), reference.curve.points().size());
    for (size_t i = 0; i < result.curve.points().size(); ++i) {
      EXPECT_EQ(result.curve.points()[i].time,
                reference.curve.points()[i].time);
      EXPECT_EQ(result.curve.points()[i].comparisons,
                reference.curve.points()[i].comparisons);
      EXPECT_EQ(result.curve.points()[i].matches_found,
                reference.curve.points()[i].matches_found);
    }
  }
}

}  // namespace
}  // namespace pier
