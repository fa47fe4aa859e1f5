// Integration tests for the extension systems on generated data:
// PSN variants and DySNI run end-to-end through the simulator and
// reach sane quality; the bounded priority queue also gets a
// differential test under the I-PBS composite comparator.

#include <algorithm>

#include <gtest/gtest.h>

#include "baseline/dysni.h"
#include "baseline/psn.h"
#include "datagen/generators.h"
#include "model/comparison.h"
#include "similarity/matcher.h"
#include "stream/stream_simulator.h"
#include "util/bounded_priority_queue.h"
#include "util/rng.h"

namespace pier {
namespace {

Dataset SmallBib() {
  BibliographicOptions options;
  options.source0_count = 250;
  options.source1_count = 220;
  options.seed = 31;
  return GenerateBibliographic(options);
}

SimulatorOptions StaticSim() {
  SimulatorOptions options;
  options.num_increments = 10;
  options.increments_per_second = 0.0;
  options.cost_mode = CostMeter::Mode::kModeled;
  return options;
}

TEST(ExtensionIntegrationTest, GsPsnReachesReasonablePc) {
  const Dataset d = SmallBib();
  const StreamSimulator sim(&d, StaticSim());
  Psn psn(d.kind, BlockingOptions{}, PsnVariant::kGlobal,
          BaselineMode::kStatic, /*max_window=*/6);
  const JaccardMatcher matcher(0.35);
  const RunResult r = sim.Run(psn, matcher);
  EXPECT_GT(r.FinalPc(), 0.5);
  EXPECT_GT(r.comparisons_executed, 0u);
}

TEST(ExtensionIntegrationTest, LsPsnEmitsEarlyWindowsFirst) {
  const Dataset d = SmallBib();
  const StreamSimulator sim(&d, StaticSim());
  Psn psn(d.kind, BlockingOptions{}, PsnVariant::kLocal,
          BaselineMode::kStatic, /*max_window=*/6);
  const JaccardMatcher matcher(0.35);
  const RunResult r = sim.Run(psn, matcher);
  EXPECT_GT(r.FinalPc(), 0.5);
  // Progressive-ish: the first third of comparisons finds more than a
  // third of the matches.
  const uint64_t early =
      r.curve.MatchesAtComparisons(r.comparisons_executed / 3);
  EXPECT_GT(early, r.matches_found / 3);
}

TEST(ExtensionIntegrationTest, DySniRealTimeQuality) {
  const Dataset d = SmallBib();
  SimulatorOptions options = StaticSim();
  options.num_increments = 40;
  const StreamSimulator sim(&d, options);
  DySni dysni(d.kind, BlockingOptions{}, /*window=*/2);
  const JaccardMatcher matcher(0.35);
  const RunResult r = sim.Run(dysni, matcher);
  EXPECT_GT(r.FinalPc(), 0.6);
}

TEST(BoundedPqCompositeComparatorTest, DifferentialAgainstSortedOracle) {
  Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    BoundedPriorityQueue<Comparison, CompareByBlockThenWeight> queue(64);
    std::vector<Comparison> inserted;
    for (int i = 0; i < 200; ++i) {
      Comparison c(static_cast<ProfileId>(rng.UniformInt(0, 500)),
                   static_cast<ProfileId>(rng.UniformInt(501, 1000)),
                   static_cast<double>(rng.UniformInt(0, 9)),
                   static_cast<uint32_t>(rng.UniformInt(2, 40)));
      queue.PushBounded(c);
      inserted.push_back(c);
    }
    // Oracle: the 64 Less-greatest elements, served greatest-first.
    const CompareByBlockThenWeight less;
    std::sort(inserted.begin(), inserted.end(),
              [&less](const Comparison& a, const Comparison& b) {
                return less(b, a);
              });
    inserted.resize(std::min<size_t>(64, inserted.size()));
    size_t index = 0;
    while (!queue.empty()) {
      const Comparison got = queue.PopMax();
      ASSERT_LT(index, inserted.size());
      EXPECT_EQ(got.Key(), inserted[index].Key())
          << "trial " << trial << " position " << index;
      ++index;
    }
    EXPECT_EQ(index, inserted.size());
  }
}

}  // namespace
}  // namespace pier
