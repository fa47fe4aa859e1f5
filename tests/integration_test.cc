// End-to-end integration tests asserting the paper's comparative
// properties (Definition 3) on small generated datasets with modeled
// (deterministic) costs:
//   * improved early quality of PIER vs. batch ER,
//   * comparable eventual quality,
//   * globality (cross-increment matches found),
//   * failure modes of the straightforward progressive adaptations,
//   * I-BASE stagnation on fast streams vs. adaptive PIER.

#include <gtest/gtest.h>

#include "baseline/batch_er.h"
#include "baseline/i_base.h"
#include "baseline/pbs.h"
#include "baseline/pps.h"
#include "baseline/pps_local.h"
#include "datagen/generators.h"
#include "similarity/matcher.h"
#include "stream/pier_adapter.h"
#include "stream/stream_simulator.h"
#include "strategy_test_name.h"

namespace pier {
namespace {

Dataset SmallMovies() {
  MoviesOptions options;
  options.source0_count = 400;
  options.source1_count = 350;
  options.seed = 21;
  return GenerateMovies(options);
}

Dataset SmallCensus() {
  CensusOptions options;
  options.num_records = 800;
  options.seed = 22;
  return GenerateCensus(options);
}

SimulatorOptions Modeled(size_t increments, double rate,
                         double budget = 1e9) {
  SimulatorOptions options;
  options.num_increments = increments;
  options.increments_per_second = rate;
  options.time_budget_s = budget;
  options.cost_mode = CostMeter::Mode::kModeled;
  return options;
}

PierOptions PierFor(const Dataset& d, PierStrategy strategy) {
  PierOptions options;
  options.kind = d.kind;
  options.strategy = strategy;
  return options;
}

RunResult RunPier(const Dataset& d, PierStrategy strategy,
                  const SimulatorOptions& sim_options,
                  const Matcher& matcher) {
  StreamSimulator sim(&d, sim_options);
  PierAdapter alg(PierFor(d, strategy));
  return sim.Run(alg, matcher);
}

class StrategyIntegrationTest
    : public ::testing::TestWithParam<PierStrategy> {};

TEST_P(StrategyIntegrationTest, HighEventualQualityOnCleanClean) {
  const Dataset d = SmallMovies();
  const JaccardMatcher matcher(0.3);
  const RunResult r = RunPier(d, GetParam(), Modeled(20, 0.0), matcher);
  EXPECT_GT(r.FinalPc(), 0.75) << r.algorithm;
}

TEST_P(StrategyIntegrationTest, HighEventualQualityOnDirty) {
  const Dataset d = SmallCensus();
  const JaccardMatcher matcher(0.3);
  const RunResult r = RunPier(d, GetParam(), Modeled(20, 0.0), matcher);
  EXPECT_GT(r.FinalPc(), 0.7) << r.algorithm;
}

TEST_P(StrategyIntegrationTest, GlobalityFindsCrossIncrementMatches) {
  // With many increments, most true pairs straddle increments; a high
  // final PC therefore implies cross-increment comparisons happened.
  const Dataset d = SmallMovies();
  const JaccardMatcher matcher(0.3);
  const RunResult r = RunPier(d, GetParam(), Modeled(50, 0.0), matcher);
  EXPECT_GT(r.FinalPc(), 0.7) << r.algorithm;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyIntegrationTest,
                         ::testing::ValuesIn(AllStrategies()),
                         StrategyTestName);

TEST(EarlyQualityTest, IPesBeatsBatchMidRun) {
  const Dataset d = SmallMovies();
  const JaccardMatcher matcher(0.3);
  const SimulatorOptions options = Modeled(20, 0.0);

  const RunResult pes = RunPier(d, PierStrategy::kIPes, options, matcher);
  StreamSimulator sim(&d, options);
  BatchEr batch(d.kind, BlockingOptions{});
  const RunResult bat = sim.Run(batch, matcher);

  // Compare at half of batch's completion time: progressive behaviour
  // means I-PES has found clearly more matches by then.
  const double t = bat.end_time / 2.0;
  EXPECT_GT(pes.curve.MatchesAtTime(t),
            bat.curve.MatchesAtTime(t));
  // And eventual quality is comparable (PIER prunes, so allow a gap).
  EXPECT_GT(pes.FinalPc(), bat.FinalPc() - 0.15);
}

TEST(EarlyQualityTest, IPesFrontLoadsMatchesPerComparison) {
  // PC per executed comparison: the first 20% of I-PES's comparisons
  // find a disproportionate share of its matches.
  const Dataset d = SmallMovies();
  const JaccardMatcher matcher(0.3);
  const RunResult r =
      RunPier(d, PierStrategy::kIPes, Modeled(20, 0.0), matcher);
  const uint64_t early =
      r.curve.MatchesAtComparisons(r.comparisons_executed / 5);
  EXPECT_GT(early, r.matches_found / 2);
}

TEST(AdaptationFailureTest, PpsLocalBarelyFindsMatches) {
  const Dataset d = SmallMovies();
  const JaccardMatcher matcher(0.3);
  StreamSimulator sim(&d, Modeled(50, 0.0));
  PpsLocal local(d.kind, BlockingOptions{});
  const RunResult r = sim.Run(local, matcher);
  const RunResult pes =
      RunPier(d, PierStrategy::kIPes, Modeled(50, 0.0), matcher);
  EXPECT_LT(r.FinalPc(), 0.25);
  EXPECT_LT(r.FinalPc(), pes.FinalPc() / 2.0);
}

TEST(AdaptationFailureTest, PpsGlobalPaysReassessmentOverhead) {
  // On a fast stream with a budget, PPS-GLOBAL's per-increment full
  // re-initialization leaves it behind I-PES in early quality.
  const Dataset d = SmallMovies();
  const JaccardMatcher matcher(0.3);
  const double budget = 0.5;
  const SimulatorOptions options = Modeled(50, 200.0, budget);

  StreamSimulator sim(&d, options);
  Pps pps_global(d.kind, BlockingOptions{},
                 BaselineMode::kGlobalIncremental);
  const RunResult glob = sim.Run(pps_global, matcher);
  const RunResult pes = RunPier(d, PierStrategy::kIPes, options, matcher);
  EXPECT_GT(pes.matches_found, glob.matches_found);
}

TEST(IncrementalComparisonTest, IPesEarlyQualityBeatsIBaseOnFastStream) {
  const Dataset d = SmallCensus();
  const EditDistanceMatcher matcher(0.75);
  const double budget = 0.8;
  const SimulatorOptions options = Modeled(40, 100.0, budget);

  StreamSimulator sim(&d, options);
  IBase ibase(d.kind, BlockingOptions{});
  const RunResult base = sim.Run(ibase, matcher);
  const RunResult pes = RunPier(d, PierStrategy::kIPes, options, matcher);

  const double auc_pes = pes.curve.AucOverTime(budget, d.truth.size());
  const double auc_base = base.curve.AucOverTime(budget, d.truth.size());
  EXPECT_GT(auc_pes, auc_base);
}

TEST(IncrementalComparisonTest, SlowStreamBothKeepUp) {
  const Dataset d = SmallCensus();
  const JaccardMatcher matcher(0.3);
  const SimulatorOptions options = Modeled(10, 2.0);

  StreamSimulator sim(&d, options);
  IBase ibase(d.kind, BlockingOptions{});
  const RunResult base = sim.Run(ibase, matcher);
  const RunResult pes = RunPier(d, PierStrategy::kIPes, options, matcher);
  // Slow stream: both consume the stream at its nominal pace.
  ASSERT_GE(base.stream_consumed_at, 0.0);
  ASSERT_GE(pes.stream_consumed_at, 0.0);
  EXPECT_LT(base.stream_consumed_at, 6.0);
  EXPECT_LT(pes.stream_consumed_at, 6.0);
}

TEST(ProgressiveBaselineTest, PbsAndPpsReachHighPcStatically) {
  const Dataset d = SmallMovies();
  const JaccardMatcher matcher(0.3);
  const SimulatorOptions options = Modeled(1, 0.0);

  StreamSimulator sim_pbs(&d, options);
  Pbs pbs(d.kind, BlockingOptions{});
  const RunResult r_pbs = sim_pbs.Run(pbs, matcher);
  EXPECT_GT(r_pbs.FinalPc(), 0.8);

  StreamSimulator sim_pps(&d, options);
  Pps pps(d.kind, BlockingOptions{});
  const RunResult r_pps = sim_pps.Run(pps, matcher);
  EXPECT_GT(r_pps.FinalPc(), 0.6);  // bounded by top-k per profile
}

TEST(WeightingAblationTest, AllSchemesReachReasonablePc) {
  const Dataset d = SmallMovies();
  const JaccardMatcher matcher(0.3);
  for (const WeightingScheme scheme :
       {WeightingScheme::kCbs, WeightingScheme::kEcbs, WeightingScheme::kJs,
        WeightingScheme::kArcs}) {
    PierOptions options = PierFor(d, PierStrategy::kIPes);
    options.prioritizer.scheme = scheme;
    StreamSimulator sim(&d, Modeled(20, 0.0));
    PierAdapter alg(options);
    const JaccardMatcher m(0.3);
    const RunResult r = sim.Run(alg, m);
    EXPECT_GT(r.FinalPc(), 0.6) << ToString(scheme);
  }
}

}  // namespace
}  // namespace pier
