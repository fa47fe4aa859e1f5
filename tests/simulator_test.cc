// Tests for the stream simulator: virtual-time semantics, arrival
// scheduling, backpressure, budget enforcement, determinism of modeled
// costs, and the progressive-curve recording; plus the eval-layer
// curve math.

#include <gtest/gtest.h>

#include "baseline/i_base.h"
#include "datagen/generators.h"
#include "eval/progressive_curve.h"
#include "eval/report.h"
#include "similarity/matcher.h"
#include "stream/pier_adapter.h"
#include "stream/stream_simulator.h"

namespace pier {
namespace {

Dataset TinyDataset() {
  BibliographicOptions options;
  options.source0_count = 120;
  options.source1_count = 100;
  options.seed = 11;
  return GenerateBibliographic(options);
}

SimulatorOptions ModeledOptions(size_t increments, double rate) {
  SimulatorOptions options;
  options.num_increments = increments;
  options.increments_per_second = rate;
  options.cost_mode = CostMeter::Mode::kModeled;
  return options;
}

PierOptions PierFor(const Dataset& d, PierStrategy strategy) {
  PierOptions options;
  options.kind = d.kind;
  options.strategy = strategy;
  return options;
}

TEST(ProgressiveCurveTest, MatchesAtTimeSteps) {
  ProgressiveCurve curve;
  curve.Add({1.0, 10, 2});
  curve.Add({2.0, 20, 5});
  curve.Add({4.0, 40, 9});
  EXPECT_EQ(curve.MatchesAtTime(0.5), 0u);
  EXPECT_EQ(curve.MatchesAtTime(1.0), 2u);
  EXPECT_EQ(curve.MatchesAtTime(3.0), 5u);
  EXPECT_EQ(curve.MatchesAtTime(100.0), 9u);
}

TEST(ProgressiveCurveTest, MatchesAtComparisons) {
  ProgressiveCurve curve;
  curve.Add({1.0, 10, 2});
  curve.Add({2.0, 20, 5});
  EXPECT_EQ(curve.MatchesAtComparisons(9), 0u);
  EXPECT_EQ(curve.MatchesAtComparisons(10), 2u);
  EXPECT_EQ(curve.MatchesAtComparisons(25), 5u);
}

TEST(ProgressiveCurveTest, PcAtTime) {
  ProgressiveCurve curve;
  curve.Add({1.0, 10, 5});
  EXPECT_DOUBLE_EQ(curve.PcAtTime(2.0, 10), 0.5);
  EXPECT_DOUBLE_EQ(curve.PcAtTime(2.0, 0), 0.0);
}

TEST(ProgressiveCurveTest, AucPerfectVsLate) {
  // All matches at t=0 -> AUC ~ 1; all at the horizon -> AUC ~ 0.
  ProgressiveCurve early;
  early.Add({0.0, 1, 10});
  EXPECT_NEAR(early.AucOverTime(10.0, 10), 1.0, 1e-9);
  ProgressiveCurve late;
  late.Add({10.0, 1, 10});
  EXPECT_NEAR(late.AucOverTime(10.0, 10), 0.0, 1e-9);
}

TEST(ProgressiveCurveTest, AucMidpoint) {
  ProgressiveCurve curve;
  curve.Add({5.0, 1, 10});  // everything found halfway
  EXPECT_NEAR(curve.AucOverTime(10.0, 10), 0.5, 1e-9);
}

TEST(ProgressiveCurveTest, DownsampleKeepsEndpoints) {
  ProgressiveCurve curve;
  for (int i = 0; i < 100; ++i) {
    curve.Add({static_cast<double>(i), static_cast<uint64_t>(i),
               static_cast<uint64_t>(i / 2)});
  }
  const auto small = curve.Downsample(10);
  EXPECT_LE(small.points().size(), 11u);
  EXPECT_EQ(small.points().front().comparisons, 0u);
  EXPECT_EQ(small.points().back().comparisons, 99u);
}

TEST(ProgressiveCurveTest, DownsampleKeepsTimeOnlyTailPoint) {
  // Regression: the tail guard used to compare only `.comparisons`, so
  // a final point that differs from the last sampled one only in time
  // (a run ending after its last batch without further comparisons)
  // was silently dropped, truncating the curve's time extent.
  ProgressiveCurve curve;
  for (int i = 0; i < 99; ++i) {
    curve.Add({static_cast<double>(i), static_cast<uint64_t>(i),
               static_cast<uint64_t>(i / 2)});
  }
  curve.Add({1000.0, 98, 49});  // same counts as point 98, later time
  // Downsample(8): stride 99/7 lands the last sample on index 98, so
  // preserving the true final point is entirely up to the tail guard.
  const auto small = curve.Downsample(8);
  EXPECT_DOUBLE_EQ(small.points().back().time, 1000.0);
  EXPECT_EQ(small.points().back().comparisons, 98u);
  EXPECT_EQ(small.points().back().matches_found, 49u);
}

TEST(CostMeterTest, ModeledDeterministicAndAdditive) {
  const CostMeter meter(CostMeter::Mode::kModeled);
  WorkStats stats;
  stats.profiles = 10;
  stats.tokens = 100;
  const double a = meter.StepCost(stats, 123.0);  // measured arg ignored
  const double b = meter.StepCost(stats, 0.001);
  EXPECT_DOUBLE_EQ(a, b);
  WorkStats more = stats;
  more.comparisons_generated = 50;
  EXPECT_GT(meter.StepCost(more, 0.0), a);
}

TEST(CostMeterTest, MeasuredUsesWallTime) {
  const CostMeter meter(CostMeter::Mode::kMeasured);
  EXPECT_NEAR(meter.MatchCost(1000000, 0.5), 0.5,
              0.01);  // overhead is microscopic
}

TEST(SimulatorTest, RunsToEventualCompletionOnStaticStream) {
  const Dataset d = TinyDataset();
  StreamSimulator sim(&d, ModeledOptions(10, /*rate=*/0.0));
  PierAdapter alg(PierFor(d, PierStrategy::kIPes));
  const JaccardMatcher matcher(0.4);
  const RunResult result = sim.Run(alg, matcher);
  EXPECT_EQ(result.algorithm, "I-PES");
  EXPECT_GT(result.comparisons_executed, 0u);
  EXPECT_GT(result.matches_found, result.total_true_matches / 2);
  EXPECT_GE(result.stream_consumed_at, 0.0);
  EXPECT_GT(result.end_time, 0.0);
  EXPECT_FALSE(result.curve.empty());
}

TEST(SimulatorTest, ModeledRunsAreDeterministic) {
  const Dataset d = TinyDataset();
  StreamSimulator sim(&d, ModeledOptions(10, 0.0));
  const JaccardMatcher matcher(0.4);
  PierAdapter a(PierFor(d, PierStrategy::kIPes));
  PierAdapter b(PierFor(d, PierStrategy::kIPes));
  const RunResult ra = sim.Run(a, matcher);
  const RunResult rb = sim.Run(b, matcher);
  EXPECT_EQ(ra.comparisons_executed, rb.comparisons_executed);
  EXPECT_EQ(ra.matches_found, rb.matches_found);
  EXPECT_DOUBLE_EQ(ra.end_time, rb.end_time);
}

TEST(SimulatorTest, TimeBudgetTruncatesRun) {
  const Dataset d = TinyDataset();
  SimulatorOptions options = ModeledOptions(10, 0.0);
  options.time_budget_s = 1e-4;
  StreamSimulator sim(&d, options);
  PierAdapter alg(PierFor(d, PierStrategy::kIPes));
  const JaccardMatcher matcher(0.4);
  const RunResult result = sim.Run(alg, matcher);
  EXPECT_LT(result.end_time, 0.1);
  SimulatorOptions full = ModeledOptions(10, 0.0);
  StreamSimulator sim_full(&d, full);
  PierAdapter alg2(PierFor(d, PierStrategy::kIPes));
  const RunResult unbounded = sim_full.Run(alg2, matcher);
  EXPECT_LT(result.matches_found, unbounded.matches_found);
}

TEST(SimulatorTest, SlowStreamDelaysConsumption) {
  const Dataset d = TinyDataset();
  const JaccardMatcher matcher(0.4);
  // 5 increments at 2/s: the last increment cannot arrive before 2 s.
  StreamSimulator sim(&d, ModeledOptions(5, 2.0));
  PierAdapter alg(PierFor(d, PierStrategy::kIPes));
  const RunResult result = sim.Run(alg, matcher);
  EXPECT_GE(result.stream_consumed_at, 2.0);
  EXPECT_GE(result.end_time, result.stream_consumed_at);
}

TEST(SimulatorTest, ArrivalTimestampsOnCurve) {
  const Dataset d = TinyDataset();
  const JaccardMatcher matcher(0.4);
  StreamSimulator sim(&d, ModeledOptions(4, 1.0));
  PierAdapter alg(PierFor(d, PierStrategy::kIPes));
  const RunResult result = sim.Run(alg, matcher);
  // Matches of late increments cannot be found before those
  // increments arrived.
  EXPECT_LT(result.curve.MatchesAtTime(0.5),
            result.matches_found);
}

TEST(SimulatorTest, BackpressureMakesIBaseSlowerThanStream) {
  // Expensive matcher + fast stream: I-BASE must fall behind (consumed
  // time far beyond the nominal 20 ms stream duration), because it
  // refuses the next increment until its pending comparisons finish.
  MoviesOptions movie_options;
  movie_options.source0_count = 300;
  movie_options.source1_count = 300;
  const Dataset d = GenerateMovies(movie_options);
  const EditDistanceMatcher matcher(0.8);
  SimulatorOptions options = ModeledOptions(20, 1000.0);
  StreamSimulator sim(&d, options);
  IBase ibase(d.kind, BlockingOptions{});
  const RunResult result = sim.Run(ibase, matcher);
  ASSERT_GE(result.stream_consumed_at, 0.0);
  EXPECT_GT(result.stream_consumed_at, 5.0 * (20.0 / 1000.0));
}

TEST(SimulatorTest, IBaseEventualQualityOnSlowStream) {
  const Dataset d = TinyDataset();
  const JaccardMatcher matcher(0.4);
  StreamSimulator sim(&d, ModeledOptions(10, 0.0));
  IBase ibase(d.kind, BlockingOptions{});
  const RunResult result = sim.Run(ibase, matcher);
  EXPECT_GT(result.FinalPc(), 0.5);
}

void ExpectStrictlyMonotoneCurve(const RunResult& result) {
  const auto& points = result.curve.points();
  ASSERT_FALSE(points.empty());
  for (size_t i = 1; i < points.size(); ++i) {
    // Strictly increasing comparisons (in particular: no duplicate
    // comparison counts, which the old unconditional terminal point
    // used to produce), monotone matches and time.
    EXPECT_GT(points[i].comparisons, points[i - 1].comparisons)
        << "at point " << i;
    EXPECT_GE(points[i].matches_found, points[i - 1].matches_found)
        << "at point " << i;
    EXPECT_GE(points[i].time, points[i - 1].time) << "at point " << i;
  }
  EXPECT_EQ(points.back().comparisons, result.comparisons_executed);
  EXPECT_EQ(points.back().matches_found, result.matches_found);
}

TEST(SimulatorTest, CurveStrictlyMonotoneInComparisons) {
  const Dataset d = TinyDataset();
  const JaccardMatcher matcher(0.4);
  for (const PierStrategy strategy :
       {PierStrategy::kIPcs, PierStrategy::kIPbs, PierStrategy::kIPes}) {
    StreamSimulator sim(&d, ModeledOptions(10, 0.0));
    PierAdapter alg(PierFor(d, strategy));
    ExpectStrictlyMonotoneCurve(sim.Run(alg, matcher));
  }
}

TEST(SimulatorTest, CurveStrictlyMonotoneWhenBudgetTruncates) {
  // A budget-truncated run ends mid-stream; the terminal point must
  // still not duplicate the comparison count of the last batch point.
  const Dataset d = TinyDataset();
  const JaccardMatcher matcher(0.4);
  SimulatorOptions options = ModeledOptions(10, 0.0);
  options.time_budget_s = 1e-4;
  StreamSimulator sim(&d, options);
  PierAdapter alg(PierFor(d, PierStrategy::kIPes));
  ExpectStrictlyMonotoneCurve(sim.Run(alg, matcher));
}

// An algorithm that refuses increments for a fixed number of idle
// ticks after each delivery while holding no emittable work: the
// shape that used to trip the simulator's hard CHECK and now takes
// the diagnosed stall path.
class WindowedStaller : public ErAlgorithm {
 public:
  explicit WindowedStaller(int ticks_needed) : needed_(ticks_needed) {}

  WorkStats OnIncrement(std::vector<EntityProfile> profiles) override {
    (void)profiles;
    ready_ = false;
    ticks_ = 0;
    WorkStats stats;
    stats.profiles = 1;
    return stats;
  }

  std::vector<Comparison> NextBatch(WorkStats* stats) override {
    (void)stats;
    return {};
  }

  WorkStats OnIdleTick() override {
    if (++ticks_ >= needed_) ready_ = true;
    return {};
  }

  bool ReadyForIncrement() const override { return ready_; }

  const EntityProfile& Profile(ProfileId id) const override {
    (void)id;
    static const EntityProfile kEmpty;
    return kEmpty;
  }

  const char* name() const override { return "windowed-staller"; }

 private:
  int needed_;
  int ticks_ = 0;
  bool ready_ = true;
};

TEST(SimulatorTest, StallingAlgorithmIsDiagnosedNotCrashed) {
  const Dataset d = TinyDataset();
  const JaccardMatcher matcher(0.4);
  // Fast stream (all increments due immediately) + an algorithm that
  // needs 3 idle ticks between deliveries: every delivery is followed
  // by refused-but-due ticks.
  StreamSimulator sim(&d, ModeledOptions(8, 1000.0));
  WindowedStaller alg(/*ticks_needed=*/3);
  const RunResult result = sim.Run(alg, matcher);
  EXPECT_GT(result.stalled_ticks, 0u);
  EXPECT_FALSE(result.stall_aborted);
  // The stream is still fully consumed: stalls cost virtual time but
  // do not wedge the run.
  EXPECT_GE(result.stream_consumed_at, 0.0);
}

TEST(SimulatorTest, PermanentStallHitsLimitAndAborts) {
  const Dataset d = TinyDataset();
  const JaccardMatcher matcher(0.4);
  StreamSimulator sim(&d, ModeledOptions(8, 1000.0));
  // Never becomes ready again after the first increment.
  WindowedStaller alg(/*ticks_needed=*/1 << 30);
  const RunResult result = sim.Run(alg, matcher);
  EXPECT_TRUE(result.stall_aborted);
  EXPECT_EQ(result.stalled_ticks, StreamSimulator::kStallLimit);
  // Terminated without consuming the stream (and without crashing).
  EXPECT_LT(result.stream_consumed_at, 0.0);
}

TEST(SimulatorTest, WellBehavedRunHasNoStalls) {
  const Dataset d = TinyDataset();
  const JaccardMatcher matcher(0.4);
  StreamSimulator sim(&d, ModeledOptions(10, 0.0));
  PierAdapter alg(PierFor(d, PierStrategy::kIPes));
  const RunResult result = sim.Run(alg, matcher);
  EXPECT_EQ(result.stalled_ticks, 0u);
  EXPECT_FALSE(result.stall_aborted);
}

TEST(SimulatorTest, SplitCoversWholeDataset) {
  const Dataset d = TinyDataset();
  StreamSimulator sim(&d, ModeledOptions(7, 1.0));
  size_t total = 0;
  for (const auto& inc : sim.increments()) total += inc.size();
  EXPECT_EQ(total, d.profiles.size());
}

TEST(ReportTest, CurveCsvHasHeaderAndRows) {
  RunResult run;
  run.algorithm = "X";
  run.total_true_matches = 4;
  run.curve.Add({0.0, 0, 0});
  run.curve.Add({1.0, 10, 2});
  std::ostringstream out;
  PrintCurveCsv(out, {run});
  const std::string text = out.str();
  EXPECT_NE(text.find("series,time_s,comparisons,matches,pc"),
            std::string::npos);
  EXPECT_NE(text.find("X,1.0000,10,2,0.5000"), std::string::npos);
}

TEST(ReportTest, SummaryTablePrintsAllRuns) {
  RunResult a;
  a.algorithm = "ALG-A";
  a.total_true_matches = 1;
  a.curve.Add({0.0, 1, 1});
  RunResult b;
  b.algorithm = "ALG-B";
  b.total_true_matches = 1;
  std::ostringstream out;
  PrintSummaryTable(out, {a, b}, 10.0);
  EXPECT_NE(out.str().find("ALG-A"), std::string::npos);
  EXPECT_NE(out.str().find("ALG-B"), std::string::npos);
}

}  // namespace
}  // namespace pier
