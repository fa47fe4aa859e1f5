// Parallel match-execution throughput: runs the ED matcher (the
// paper's expensive configuration, quadratic in profile-text length)
// over a fixed set of prioritized comparisons from the dbpedia-like
// generator (long, ragged profiles — the workload where matcher cost
// dominates end-to-end runtime), sharded across 1..N executor threads.
//
// Prints CSV: threads,comparisons,reps,seconds,comparisons_per_sec,
// speedup_vs_1.
//
// Environment / arguments:
//   PIER_BENCH_SCALE=tiny|paper smaller / larger dataset + comparisons
//   --max-comparisons=N                cap on the number of comparisons,
//                                      for CI smoke runs (e.g. 2000)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "core/pier_pipeline.h"
#include "similarity/parallel_executor.h"
#include "util/stopwatch.h"
#include "tools/flags.h"

namespace {

using namespace pier;

// Collects up to `target` prioritized comparisons by running the
// I-PES pipeline over the dataset (ingest everything, then drain).
std::vector<Comparison> CollectComparisons(const Dataset& dataset,
                                           PierPipeline& pipeline,
                                           size_t target) {
  std::vector<EntityProfile> all = dataset.profiles;
  pipeline.Ingest(std::move(all));
  pipeline.NotifyStreamEnd();
  std::vector<Comparison> comparisons;
  while (comparisons.size() < target) {
    const std::vector<Comparison> batch = pipeline.EmitBatch(4096);
    if (batch.empty()) break;
    comparisons.insert(comparisons.end(), batch.begin(), batch.end());
  }
  if (comparisons.size() > target) comparisons.resize(target);
  return comparisons;
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = bench::PaperScale();
  const bool tiny = bench::TinyScale();
  const tools::Flags args = tools::ParseArgs(argc, argv, {"max-comparisons"});
  const auto max_comparisons = tools::GetNumber<size_t>(
      args, "max-comparisons", paper ? 200000 : tiny ? 4000 : 40000);

  DbpediaOptions data_options;
  data_options.source0_count = paper ? 8000 : tiny ? 700 : 2000;
  data_options.source1_count = paper ? 10000 : tiny ? 900 : 2600;
  const Dataset dataset = GenerateDbpedia(data_options);

  PierOptions options;
  options.kind = dataset.kind;
  options.strategy = PierStrategy::kIPes;
  PierPipeline pipeline(options);
  const std::vector<Comparison> comparisons =
      CollectComparisons(dataset, pipeline, max_comparisons);
  std::fprintf(stderr, "dataset %s: %zu profiles, %zu comparisons\n",
               dataset.name.c_str(), dataset.profiles.size(),
               comparisons.size());

  const auto matcher = bench::MakeBenchMatcher("ED");

  // Repetitions sized so the 1-thread pass takes a measurable time.
  const size_t reps = comparisons.size() >= 20000 ? 3 : 10;

  std::printf(
      "threads,comparisons,reps,seconds,comparisons_per_sec,speedup_vs_1\n");
  double base_cps = 0.0;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const ParallelMatchExecutor executor(matcher.get(), threads);
    // Warm-up pass (first-touch of the pool, caches).
    uint64_t sink = executor.Execute(comparisons, pipeline.profiles()).size();
    Stopwatch sw;
    for (size_t r = 0; r < reps; ++r) {
      sink += executor.Execute(comparisons, pipeline.profiles()).size();
    }
    const double seconds = sw.ElapsedSeconds();
    const double cps =
        static_cast<double>(comparisons.size() * reps) / seconds;
    if (threads == 1) base_cps = cps;
    std::printf("%zu,%zu,%zu,%.4f,%.0f,%.2f\n", threads, comparisons.size(),
                reps, seconds, cps, base_cps > 0 ? cps / base_cps : 0.0);
    if (sink == 0) std::fprintf(stderr, "unexpected empty results\n");
  }
  return 0;
}
