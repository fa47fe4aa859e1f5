// Overhead gate for the pier::obs metrics layer: runs the same
// end-to-end workload (pipeline emit + parallel match execution over
// many small batches -- the hottest instrumented path) twice in one
// process, uninstrumented (null registry: every metric update is one
// predictable branch) and instrumented (registry attached, every
// counter/histogram/timer live), and fails if instrumentation costs
// more than the allowed fraction.
//
// Reps for the two variants are interleaved and the minimum per
// variant is compared, which suppresses thermal / scheduler noise.
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
  const size_t reps = 7;

  obs::MetricsRegistry registry;
  // Warm-up both variants (allocator, caches, token dictionary costs).
  uint64_t sink = RunWorkload(dataset, matcher, nullptr, batch_size,
                              max_comparisons);
  sink += RunWorkload(dataset, matcher, &registry, batch_size,
                      max_comparisons);

  double best_disabled = 1e300;
  double best_enabled = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    sink += RunWorkload(dataset, matcher, nullptr, batch_size,
                        max_comparisons);
    best_disabled = std::min(best_disabled, sw.ElapsedSeconds());
    sw.Restart();
    sink += RunWorkload(dataset, matcher, &registry, batch_size,
                        max_comparisons);
    best_enabled = std::min(best_enabled, sw.ElapsedSeconds());
  }

  const double overhead = best_enabled / best_disabled - 1.0;
  std::printf("variant,best_seconds\n");
  std::printf("metrics_disabled,%.6f\n", best_disabled);
  std::printf("metrics_enabled,%.6f\n", best_enabled);
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
