// Checks of the benchmark's own arithmetic (stats.h) on hand-computed
// inputs. Plain checks that stay on in every build type; exits 1 if any
// fails. Run: pierbench_selftest, or `python3 pierbench/run.py
// --self-test`.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) <= 1e-12; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the selection has to sort
}

void TestPercentiles() {
  using pierbench::HighestSupportedQuantile;
  using pierbench::Percentile;
  // 1000 samples: p99 is the 990th value and has exactly 10 beyond it.
  EXPECT(Percentile(OneTo(1000), 0.99) == 990.0);
  // 999 samples: rank 990 leaves only 9 beyond -- refused.
  EXPECT(!Percentile(OneTo(999), 0.99).has_value());
  // The median needs 20 samples (rank 10, 10 beyond).
  EXPECT(Percentile(OneTo(20), 0.5) == 10.0);
  EXPECT(!Percentile(OneTo(19), 0.5).has_value());
  EXPECT(!Percentile({}, 0.5).has_value());
  // Highest supported percentile per sample size.
  EXPECT(HighestSupportedQuantile(19) == 0.0);
  EXPECT(HighestSupportedQuantile(20) == 0.5);
  EXPECT(HighestSupportedQuantile(99) == 0.5);
  EXPECT(HighestSupportedQuantile(100) == 0.9);
  EXPECT(HighestSupportedQuantile(1000) == 0.99);
  EXPECT(HighestSupportedQuantile(10000) == 0.999);
  EXPECT(pierbench::Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(pierbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TestProgressSummaries() {
  // Budget 10, 4 true pairs, true matches found after comparisons 2, 5
  // and 5. PC steps: c=1: 0, c=2..4: 1/4, c=5..10: 3/4.
  // Area = 3 * 0.25 + 6 * 0.75 = 5.25, divided by the budget: 0.525.
  EXPECT(Near(pierbench::PcAuc({2, 5, 5}, 10, 4), 0.525));
  // A match found after the budget does not count.
  EXPECT(Near(pierbench::PcAuc({2, 5, 5, 11}, 10, 4), 0.525));
  // Perfect: everything found by the first comparison.
  EXPECT(Near(pierbench::PcAuc({1, 1}, 8, 2), 1.0));
  EXPECT(pierbench::PcAuc({1}, 0, 2) == 0.0);
  // Half of 5 matches is reached at the 3rd discovery (0.3 s).
  EXPECT(pierbench::HalfTime({0.5, 0.1, 0.3, 0.2, 0.4}) == 0.3);
  // Half of 4 matches is reached at the 2nd discovery.
  EXPECT(pierbench::HalfTime({0.4, 0.1, 0.3, 0.2}) == 0.2);
  EXPECT(pierbench::HalfTime({}) == 0.0);
}

void TestBatchTiming() {
  // A fake clock that advances 7 ns per call made and 1 ns per read:
  // 16 calls between two reads take 16 * 7 + 1 = 113 ns, so a call
  // costs 113 / 16 ns -- the clock read is amortized over the batch.
  int64_t clock = 0;
  size_t calls = 0;
  const auto now = [&] { return clock += 1; };
  const double per_call = pierbench::BatchPerCall(16, now, [&](size_t i) {
    EXPECT(i == calls);
    ++calls;
    clock += 7;
  });
  EXPECT(calls == 16);
  EXPECT(Near(per_call, 113.0 / 16.0));
}

void TestClusterCheck() {
  // Ids 0..5; matches 1-3, 3-5, 2-4; id 4 deleted, so 2 is alone.
  const std::vector<std::pair<uint32_t, uint32_t>> edges = {
      {1, 3}, {3, 5}, {2, 4}};
  const std::vector<uint8_t> live = {1, 1, 1, 1, 0, 1};
  const uint32_t dead = 0xffffffffu;
  const std::vector<uint32_t> served = {0, 1, 2, 1, dead, 1};
  const auto serve = [&](const std::vector<uint32_t>& answers) {
    return [&answers](uint32_t id) { return answers[id]; };
  };
  EXPECT(pierbench::ClusterMismatches(6, edges, live, dead, serve(served)) ==
         0);
  // Planted wrong cluster: 5 served as its own cluster.
  std::vector<uint32_t> wrong = served;
  wrong[5] = 5;
  EXPECT(pierbench::ClusterMismatches(6, edges, live, dead, serve(wrong)) ==
         1);
  // A deleted id served as live is caught too.
  wrong = served;
  wrong[4] = 2;
  EXPECT(pierbench::ClusterMismatches(6, edges, live, dead, serve(wrong)) ==
         1);
  // A merge through the deleted id is wrong.
  wrong = served;
  wrong[2] = 1;
  EXPECT(pierbench::ClusterMismatches(6, edges, live, dead, serve(wrong)) ==
         1);
}

void TestDigest() {
  const uint64_t a = pierbench::DigestStep(pierbench::DigestStep(0, 1, 2, true),
                                           3, 4, false);
  const uint64_t b = pierbench::DigestStep(pierbench::DigestStep(0, 3, 4, false),
                                           1, 2, true);
  const uint64_t c = pierbench::DigestStep(pierbench::DigestStep(0, 1, 2, true),
                                           3, 4, true);
  EXPECT(a != b);  // order matters
  EXPECT(a != c);  // verdicts matter
  EXPECT(a == pierbench::DigestStep(pierbench::DigestStep(0, 1, 2, true), 3, 4,
                                    false));
}

}  // namespace

int main() {
  TestPercentiles();
  TestProgressSummaries();
  TestBatchTiming();
  TestClusterCheck();
  TestDigest();
  if (failures == 0) std::printf("pierbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
