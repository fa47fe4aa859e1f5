// Threshold-aware similarity kernel benchmarks (google-benchmark):
// the verdict fast path (Myers bit-parallel bounded edit distance,
// size-filtered set intersection) against the retained naive
// references, over the same fixed pair lists so both variants measure
// an identical comparison multiset. Emits comparisons/sec as a rate
// counter; CI's bench-smoke job runs this with --benchmark_format=csv
// and refreshes the machine-readable baseline in BENCH_similarity.json
// (see README, "bench/ README").
//
// Gate mode: --gate-ed=<x> / --gate-js=<x> additionally run an
// interleaved min-of-reps measurement (the bench_obs_overhead pattern,
// which suppresses thermal / scheduler noise) and exit nonzero when
// the kernel speedup over the reference drops below the given factor.
//
//   PIER_BENCH_SCALE    tiny|small|paper workload size

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_harness.h"
#include "similarity/matcher.h"
#include "similarity/similarity_kernels.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace pier;

// Fixed, seeded pair lists over tokenized datasets: dbpedia-like long
// ragged texts for the expensive ED matcher, movies-like token sets
// for JS/COS. Random pairs are dominated by non-matches -- exactly the
// distribution the verdict path's filters are designed for -- plus an
// aligned slice so near-duplicates keep the full kernels honest.
struct KernelWorkload {
  std::vector<EntityProfile> ed_profiles;
  std::vector<EntityProfile> set_profiles;
  std::vector<std::pair<uint32_t, uint32_t>> ed_pairs;
  std::vector<std::pair<uint32_t, uint32_t>> set_pairs;

  KernelWorkload() {
    const bool tiny = bench::TinyScale();
    const bool paper = bench::PaperScale();

    DbpediaOptions ed_options;
    ed_options.source0_count = paper ? 2000 : tiny ? 300 : 900;
    ed_options.source1_count = paper ? 2400 : tiny ? 400 : 1100;
    ed_profiles = Tokenize(GenerateDbpedia(ed_options));

    MoviesOptions set_options;
    set_options.source0_count = paper ? 4000 : tiny ? 500 : 1200;
    set_options.source1_count = paper ? 3400 : tiny ? 400 : 1000;
    set_profiles = Tokenize(GenerateMovies(set_options));

    Rng rng(404);
    ed_pairs = MakePairs(rng, ed_profiles.size(),
                         paper ? 4096 : tiny ? 512 : 1536);
    set_pairs = MakePairs(rng, set_profiles.size(),
                          paper ? 16384 : tiny ? 2048 : 6144);
  }

  static std::vector<EntityProfile> Tokenize(Dataset dataset) {
    Tokenizer tokenizer;
    TokenDictionary dictionary;
    for (auto& p : dataset.profiles) tokenizer.TokenizeProfile(p, dictionary);
    return std::move(dataset.profiles);
  }

  static std::vector<std::pair<uint32_t, uint32_t>> MakePairs(Rng& rng,
                                                              size_t count,
                                                              size_t pairs) {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    out.reserve(pairs);
    for (size_t i = 0; i < pairs; ++i) {
      if (i % 8 == 7) {
        // Aligned clean-clean slice: likely near-duplicates, the slow
        // path for bounded kernels (no early abandon, full distance).
        const uint32_t x = static_cast<uint32_t>(rng.UniformInt(0, count / 2));
        out.emplace_back(x, std::min<uint32_t>(
                                static_cast<uint32_t>(count - 1),
                                x + static_cast<uint32_t>(count / 2)));
      } else {
        out.emplace_back(static_cast<uint32_t>(rng.UniformInt(0, count - 1)),
                         static_cast<uint32_t>(rng.UniformInt(0, count - 1)));
      }
    }
    return out;
  }
};

KernelWorkload& SharedWorkload() {
  static KernelWorkload& w = *new KernelWorkload();
  return w;
}

constexpr double kEdThreshold = 0.75;
constexpr size_t kEdMaxTextLength = 256;
constexpr double kJsThreshold = 0.5;
constexpr double kCosThreshold = 0.6;

// One full pass over the pair list; returns the number of matches (a
// sink so nothing is optimized away). `kernel` selects
// Matcher::Verdict with a reused scratch vs the naive Matches().
template <typename Pairs>
uint64_t RunPairs(const Matcher& matcher,
                  const std::vector<EntityProfile>& profiles,
                  const Pairs& pairs, bool kernel,
                  SimilarityScratch* scratch) {
  uint64_t matches = 0;
  for (const auto& [x, y] : pairs) {
    const EntityProfile& a = profiles[x];
    const EntityProfile& b = profiles[y];
    const bool is_match =
        kernel ? matcher.Verdict(a, b, scratch) : matcher.Matches(a, b);
    matches += is_match ? 1 : 0;
  }
  return matches;
}

void BM_SimilarityKernels_Ed(benchmark::State& state) {
  const KernelWorkload& w = SharedWorkload();
  const EditDistanceMatcher matcher(kEdThreshold, kEdMaxTextLength);
  const bool kernel = state.range(0) == 1;
  SimilarityScratch scratch;
  uint64_t comparisons = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunPairs(matcher, w.ed_profiles, w.ed_pairs, kernel, &scratch));
    comparisons += w.ed_pairs.size();
  }
  state.counters["cmp_per_s"] = benchmark::Counter(
      static_cast<double>(comparisons), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimilarityKernels_Ed)
    ->Name("BM_SimilarityKernels/ed")
    ->ArgNames({"kernel"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_SimilarityKernels_Js(benchmark::State& state) {
  const KernelWorkload& w = SharedWorkload();
  const JaccardMatcher matcher(kJsThreshold);
  const bool kernel = state.range(0) == 1;
  SimilarityScratch scratch;
  uint64_t comparisons = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunPairs(matcher, w.set_profiles, w.set_pairs, kernel, &scratch));
    comparisons += w.set_pairs.size();
  }
  state.counters["cmp_per_s"] = benchmark::Counter(
      static_cast<double>(comparisons), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimilarityKernels_Js)
    ->Name("BM_SimilarityKernels/js")
    ->ArgNames({"kernel"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_SimilarityKernels_Cos(benchmark::State& state) {
  const KernelWorkload& w = SharedWorkload();
  const CosineMatcher matcher(kCosThreshold);
  const bool kernel = state.range(0) == 1;
  SimilarityScratch scratch;
  uint64_t comparisons = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunPairs(matcher, w.set_profiles, w.set_pairs, kernel, &scratch));
    comparisons += w.set_pairs.size();
  }
  state.counters["cmp_per_s"] = benchmark::Counter(
      static_cast<double>(comparisons), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimilarityKernels_Cos)
    ->Name("BM_SimilarityKernels/cos")
    ->ArgNames({"kernel"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Interleaved min-of-reps speedup gate: reference and kernel reps
// alternate so the minimum per variant sees the same machine state.
// Exit status 1 when a measured speedup falls below its gate.
int RunGate(double gate_ed, double gate_js) {
  const KernelWorkload& w = SharedWorkload();
  const EditDistanceMatcher ed(kEdThreshold, kEdMaxTextLength);
  const JaccardMatcher js(kJsThreshold);
  SimilarityScratch scratch;
  const size_t reps = 7;

  // Warm-up (allocator, caches, scratch growth).
  uint64_t sink = RunPairs(ed, w.ed_profiles, w.ed_pairs, false, &scratch);
  sink += RunPairs(ed, w.ed_profiles, w.ed_pairs, true, &scratch);
  sink += RunPairs(js, w.set_profiles, w.set_pairs, false, &scratch);
  sink += RunPairs(js, w.set_profiles, w.set_pairs, true, &scratch);

  double best_ed_ref = 1e300;
  double best_ed_kernel = 1e300;
  double best_js_ref = 1e300;
  double best_js_kernel = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    sink += RunPairs(ed, w.ed_profiles, w.ed_pairs, false, &scratch);
    best_ed_ref = std::min(best_ed_ref, sw.ElapsedSeconds());
    sw.Restart();
    sink += RunPairs(ed, w.ed_profiles, w.ed_pairs, true, &scratch);
    best_ed_kernel = std::min(best_ed_kernel, sw.ElapsedSeconds());
    sw.Restart();
    sink += RunPairs(js, w.set_profiles, w.set_pairs, false, &scratch);
    best_js_ref = std::min(best_js_ref, sw.ElapsedSeconds());
    sw.Restart();
    sink += RunPairs(js, w.set_profiles, w.set_pairs, true, &scratch);
    best_js_kernel = std::min(best_js_kernel, sw.ElapsedSeconds());
  }

  const double ed_speedup = best_ed_ref / best_ed_kernel;
  const double js_speedup = best_js_ref / best_js_kernel;
  std::printf("matcher,variant,best_seconds,speedup\n");
  std::printf("ed,reference,%.6f,\n", best_ed_ref);
  std::printf("ed,kernel,%.6f,%.3f\n", best_ed_kernel, ed_speedup);
  std::printf("js,reference,%.6f,\n", best_js_ref);
  std::printf("js,kernel,%.6f,%.3f\n", best_js_kernel, js_speedup);
  std::fprintf(stderr,
               "gates: ed >= %.2fx (measured %.2fx), js >= %.2fx "
               "(measured %.2fx), sink %llu\n",
               gate_ed, ed_speedup, gate_js, js_speedup,
               static_cast<unsigned long long>(sink));
  bool failed = false;
  if (ed_speedup < gate_ed) {
    std::fprintf(stderr, "FAIL: ED verdict speedup below gate\n");
    failed = true;
  }
  if (js_speedup < gate_js) {
    std::fprintf(stderr, "FAIL: JS verdict speedup below gate\n");
    failed = true;
  }
  if (!failed) std::fprintf(stderr, "OK\n");
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the gate flags before google-benchmark sees (and rejects)
  // them.
  double gate_ed = 0.0;
  double gate_js = 0.0;
  bool gate = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--gate-ed=", 10) == 0) {
      gate_ed = std::atof(argv[i] + 10);
      gate = true;
    } else if (std::strncmp(argv[i], "--gate-js=", 10) == 0) {
      gate_js = std::atof(argv[i] + 10);
      gate = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("pier_build_type", PIER_BUILD_TYPE);
  benchmark::AddCustomContext("pier_simd", PIER_SIMD_ENABLED);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return gate ? RunGate(gate_ed, gate_js) : 0;
}
