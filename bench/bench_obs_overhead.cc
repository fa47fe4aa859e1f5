// Overhead gate for the pier::obs metrics layer: runs the same
// end-to-end workload (pipeline emit + parallel match execution over
// many small batches -- the hottest instrumented path) twice in one
// process, uninstrumented (null registry: every metric update is one
// predictable branch) and instrumented (registry attached, every
// counter/histogram/timer live), and fails if instrumentation costs
// more than the allowed fraction.
//
// Each repetition runs both variants back to back, in alternating
// order (the uninstrumented one first on even reps, second on odd
// ones), and yields one paired ratio enabled/disabled; the gate reads
// the median ratio. Pairing cancels drift between reps (a slow vCPU,
// a neighbour's burst) and alternation cancels any advantage of going
// first or second.
// Exit status: 0 when within budget, 1 when over (the CI bench-smoke
// job gates on this).
//
// Arguments:
//   --gate-overhead=F   allowed overhead fraction, default 0.05
//   PIER_BENCH_SCALE    tiny|small|paper workload size

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "core/pier_pipeline.h"
#include "obs/metrics.h"
#include "similarity/parallel_executor.h"
#include "util/stopwatch.h"
#include "tools/flags.h"

namespace {

using namespace pier;

// One pass of the instrumented hot path: re-emit the prioritized
// comparisons in small batches through a fresh pipeline and execute
// each batch. Returns a sink value so nothing is optimized away.
uint64_t RunWorkload(const Dataset& dataset, const Matcher& matcher,
                     obs::MetricsRegistry* registry, size_t batch_size,
                     size_t max_comparisons) {
  PierOptions options;
  options.kind = dataset.kind;
  options.strategy = PierStrategy::kIPes;
  options.metrics = registry;
  PierPipeline pipeline(options);
  std::vector<EntityProfile> all = dataset.profiles;
  pipeline.Ingest(std::move(all));
  pipeline.NotifyStreamEnd();
  const ParallelMatchExecutor executor(&matcher, /*num_threads=*/1, registry);
  uint64_t sink = 0;
  size_t executed = 0;
  while (executed < max_comparisons) {
    const std::vector<Comparison> batch = pipeline.EmitBatch(batch_size);
    if (batch.empty()) break;
    const std::vector<MatchVerdict> verdicts =
        executor.Execute(batch, pipeline.profiles());
    for (const MatchVerdict& v : verdicts) sink += v.is_match ? 1 : 0;
    executed += batch.size();
  }
  return sink + executed;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Flags args = tools::ParseArgs(argc, argv, {"gate-overhead"});
  const double allowed = tools::GetNumber<double>(args, "gate-overhead", 0.05);
  const bool paper = bench::PaperScale();
  const bool tiny = bench::TinyScale();

  BibliographicOptions data_options;
  data_options.source0_count = paper ? 2600 : tiny ? 400 : 1200;
  data_options.source1_count = paper ? 2300 : tiny ? 350 : 1000;
  const Dataset dataset = GenerateBibliographic(data_options);
  const size_t max_comparisons = paper ? 200000 : tiny ? 20000 : 60000;
  // Small batches maximize the relative weight of the per-batch
  // instrumentation (timers, counters) -- the adversarial setting for
  // this gate.
  const size_t batch_size = 64;
  const JaccardMatcher matcher(0.35);
  const size_t reps = 9;

  obs::MetricsRegistry registry;
  // Warm-up both variants (allocator, caches, token dictionary costs).
  uint64_t sink = RunWorkload(dataset, matcher, nullptr, batch_size,
                              max_comparisons);
  sink += RunWorkload(dataset, matcher, &registry, batch_size,
                      max_comparisons);

  const auto timed = [&](obs::MetricsRegistry* r) {
    Stopwatch sw;
    sink += RunWorkload(dataset, matcher, r, batch_size, max_comparisons);
    return sw.ElapsedSeconds();
  };
  std::vector<double> disabled;
  std::vector<double> enabled;
  std::vector<double> ratios;
  for (size_t r = 0; r < reps; ++r) {
    double off = 0.0;
    double on = 0.0;
    if (r % 2 == 0) {
      off = timed(nullptr);
      on = timed(&registry);
    } else {
      on = timed(&registry);
      off = timed(nullptr);
    }
    disabled.push_back(off);
    enabled.push_back(on);
    ratios.push_back(on / off);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };

  const double overhead = median(ratios) - 1.0;
  std::printf("variant,median_seconds\n");
  std::printf("metrics_disabled,%.6f\n", median(disabled));
  std::printf("metrics_enabled,%.6f\n", median(enabled));
  std::printf("overhead_fraction,%.4f\n", overhead);
  std::fprintf(stderr, "allowed %.2f%%, measured %.2f%% (sink %llu)\n",
               allowed * 100.0, overhead * 100.0,
               static_cast<unsigned long long>(sink));
  if (overhead > allowed) {
    std::fprintf(stderr, "FAIL: metrics overhead above budget\n");
    return 1;
  }
  std::fprintf(stderr, "OK\n");
  return 0;
}
