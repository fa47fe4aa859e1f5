// Component micro-benchmarks (google-benchmark): throughput of the
// individual substrates -- tokenization, incremental blocking,
// candidate weighting, the bounded priority queue, Bloom filters, and
// the two match functions. These are the per-unit costs the
// ModeledCostMeter approximates.

#include <algorithm>

#include <benchmark/benchmark.h>

#include "blocking/block_collection.h"
#include "blocking/block_ghosting.h"
#include "core/pier_pipeline.h"
#include "datagen/generators.h"
#include "metablocking/weighting.h"
#include "model/comparison.h"
#include "similarity/intersect_kernel.h"
#include "similarity/matcher.h"
#include "similarity/string_distance.h"
#include "tests/weighting_reference.h"
#include "text/tokenizer.h"
#include "util/bounded_priority_queue.h"
#include "util/rng.h"
#include "util/scalable_bloom_filter.h"

namespace {

using namespace pier;

Dataset& SharedMovies() {
  static Dataset& d = *new Dataset([] {
    MoviesOptions options;
    options.source0_count = 2000;
    options.source1_count = 1700;
    return GenerateMovies(options);
  }());
  return d;
}

void BM_TokenizeProfile(benchmark::State& state) {
  const Dataset& d = SharedMovies();
  Tokenizer tokenizer;
  TokenDictionary dict;
  size_t i = 0;
  for (auto _ : state) {
    EntityProfile p = d.profiles[i++ % d.profiles.size()];
    tokenizer.TokenizeProfile(p, dict);
    benchmark::DoNotOptimize(p.tokens().data());
  }
}
BENCHMARK(BM_TokenizeProfile);

void BM_IncrementalBlocking(benchmark::State& state) {
  const Dataset& d = SharedMovies();
  Tokenizer tokenizer;
  TokenDictionary dict;
  std::vector<EntityProfile> tokenized = d.profiles;
  for (auto& p : tokenized) tokenizer.TokenizeProfile(p, dict);
  size_t i = 0;
  BlockCollection* blocks = new BlockCollection(d.kind);
  for (auto _ : state) {
    if (i == tokenized.size()) {  // reset when exhausted
      state.PauseTiming();
      delete blocks;
      blocks = new BlockCollection(d.kind);
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(blocks->AddProfile(tokenized[i++]));
  }
  delete blocks;
}
BENCHMARK(BM_IncrementalBlocking);

void BM_GhostingPlusWeighting(benchmark::State& state) {
  const Dataset& d = SharedMovies();
  Tokenizer tokenizer;
  TokenDictionary dict;
  ProfileStore store;
  BlockCollection blocks(d.kind);
  for (auto p : d.profiles) {
    tokenizer.TokenizeProfile(p, dict);
    blocks.AddProfile(p);
    store.Add(std::move(p));
  }
  const WeightingContext ctx{&blocks, &store, WeightingScheme::kCbs};
  size_t i = 0;
  for (auto _ : state) {
    const EntityProfile& p = store.Get(static_cast<ProfileId>(
        i++ % store.size()));
    const auto retained = GhostBlocks(blocks, p, 0.5);
    auto cmps = GenerateWeightedComparisons(ctx, p, retained);
    benchmark::DoNotOptimize(cmps.data());
  }
}
BENCHMARK(BM_GhostingPlusWeighting);

// ---------------------------------------------------------------------------
// Weighting kernel: allocation-free epoch-stamped scratch vs. the
// map-based reference, all four schemes, Clean-Clean (dbpedia-like
// power-law blocks) and Dirty (census-like). Emits comparisons/sec and
// raw block-member visits/sec as rate counters; CI's bench-smoke job
// runs this with --benchmark_format=csv and refreshes the
// machine-readable baseline in BENCH_weighting.json (see README,
// "bench/ README").
// ---------------------------------------------------------------------------

struct WeightingWorkload {
  ProfileStore store;
  BlockCollection blocks;
  std::vector<std::vector<TokenId>> active;  // per-profile active blocks

  explicit WeightingWorkload(Dataset dataset) : blocks(dataset.kind) {
    Tokenizer tokenizer;
    TokenDictionary dictionary;
    for (auto& p : dataset.profiles) {
      tokenizer.TokenizeProfile(p, dictionary);
      blocks.AddProfile(p);
      store.Add(std::move(p));
    }
    active.resize(store.size());
    for (ProfileId id = 0; id < store.size(); ++id) {
      for (const TokenId t : store.Get(id).tokens()) {
        if (blocks.IsActive(t)) active[id].push_back(t);
      }
    }
  }
};

WeightingWorkload& SharedWeightingWorkload(DatasetKind kind) {
  if (kind == DatasetKind::kCleanClean) {
    static WeightingWorkload& w = *new WeightingWorkload([] {
      DbpediaOptions options;  // bench-smoke scale of the dbpedia stand-in
      options.source0_count = 900;
      options.source1_count = 1200;
      return GenerateDbpedia(options);
    }());
    return w;
  }
  static WeightingWorkload& w = *new WeightingWorkload([] {
    CensusOptions options;
    options.num_records = 2500;
    return GenerateCensus(options);
  }());
  return w;
}

void BM_WeightingKernel(benchmark::State& state) {
  const bool use_scratch = state.range(0) == 1;
  const auto scheme = static_cast<WeightingScheme>(state.range(1));
  const DatasetKind kind =
      state.range(2) == 1 ? DatasetKind::kCleanClean : DatasetKind::kDirty;
  WeightingWorkload& w = SharedWeightingWorkload(kind);
  const WeightingContext ctx{&w.blocks, &w.store, scheme};
  WeightingScratch scratch;
  uint64_t comparisons = 0;
  uint64_t visits = 0;
  size_t i = 0;
  for (auto _ : state) {
    const ProfileId id = static_cast<ProfileId>(i++ % w.store.size());
    const EntityProfile& p = w.store.Get(id);
    auto cmps =
        use_scratch
            ? GenerateWeightedComparisons(ctx, p, w.active[id],
                                          /*only_older_neighbors=*/true,
                                          &visits, &scratch)
            : GenerateWeightedComparisonsReference(
                  ctx, p, w.active[id], /*only_older_neighbors=*/true,
                  &visits);
    comparisons += cmps.size();
    benchmark::DoNotOptimize(cmps.data());
  }
  state.counters["cmp_per_s"] = benchmark::Counter(
      static_cast<double>(comparisons), benchmark::Counter::kIsRate);
  state.counters["visits_per_s"] = benchmark::Counter(
      static_cast<double>(visits), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WeightingKernel)
    ->ArgNames({"scratch", "scheme", "clean"})
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3}, {0, 1}});

void BM_BoundedPqPushPop(benchmark::State& state) {
  BoundedPriorityQueue<Comparison, CompareByWeight> queue(
      static_cast<size_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) {
    queue.PushBounded(
        Comparison(rng.NextU32() % 100000, rng.NextU32() % 100000,
                   rng.UniformDouble()));
    if (queue.size() > 16 && rng.Bernoulli(0.5)) {
      benchmark::DoNotOptimize(queue.PopMax());
    }
  }
}
BENCHMARK(BM_BoundedPqPushPop)->Arg(1 << 10)->Arg(1 << 16);

void BM_ScalableBloomTestAndAdd(benchmark::State& state) {
  ScalableBloomFilter filter;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.TestAndAdd(rng.NextU64() >> 20));
  }
}
BENCHMARK(BM_ScalableBloomTestAndAdd);

// Probe cost of the one-cache-line blocked Bloom filter at a fixed
// sizing.
void BM_BloomProbe(benchmark::State& state) {
  BloomFilter filter(100000, 0.01);
  Rng rng(5);
  for (uint64_t i = 0; i < 100000; ++i) filter.Add(rng.NextU64());
  Rng probe(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MayContain(probe.NextU64()));
  }
}
BENCHMARK(BM_BloomProbe);

std::vector<TokenId> RandomSortedTokens(Rng& rng, size_t size,
                                        uint32_t universe) {
  std::vector<TokenId> tokens;
  tokens.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    tokens.push_back(rng.NextU32() % universe);
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

// The batched kernel as built (AVX2 when PIER_SIMD=ON, branchless
// scalar otherwise) against the classic branchy merge it replaced.
// Arg is the per-side set size; ~half the ids overlap.
void BM_IntersectKernel(benchmark::State& state) {
  Rng rng(7);
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<TokenId> a =
      RandomSortedTokens(rng, n, static_cast<uint32_t>(2 * n));
  const std::vector<TokenId> b =
      RandomSortedTokens(rng, n, static_cast<uint32_t>(2 * n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersectionSize(a, b));
  }
  state.SetLabel(IntersectKernelUsesSimd() ? "avx2" : "scalar");
}
BENCHMARK(BM_IntersectKernel)->Arg(16)->Arg(64)->Arg(512);

void BM_IntersectBranchyMerge(benchmark::State& state) {
  Rng rng(7);
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<TokenId> a =
      RandomSortedTokens(rng, n, static_cast<uint32_t>(2 * n));
  const std::vector<TokenId> b =
      RandomSortedTokens(rng, n, static_cast<uint32_t>(2 * n));
  for (auto _ : state) {
    size_t i = 0;
    size_t j = 0;
    size_t common = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (b[j] < a[i]) {
        ++j;
      } else {
        ++common;
        ++i;
        ++j;
      }
    }
    benchmark::DoNotOptimize(common);
  }
}
BENCHMARK(BM_IntersectBranchyMerge)->Arg(16)->Arg(64)->Arg(512);

void BM_JaccardMatch(benchmark::State& state) {
  const Dataset& d = SharedMovies();
  Tokenizer tokenizer;
  TokenDictionary dict;
  std::vector<EntityProfile> tokenized = d.profiles;
  for (auto& p : tokenized) tokenizer.TokenizeProfile(p, dict);
  const JaccardMatcher matcher(0.35);
  Rng rng(3);
  for (auto _ : state) {
    const auto& a = tokenized[rng.NextU32() % tokenized.size()];
    const auto& b = tokenized[rng.NextU32() % tokenized.size()];
    benchmark::DoNotOptimize(matcher.Similarity(a, b));
  }
}
BENCHMARK(BM_JaccardMatch);

void BM_EditDistanceMatch(benchmark::State& state) {
  const Dataset& d = SharedMovies();
  Tokenizer tokenizer;
  TokenDictionary dict;
  std::vector<EntityProfile> tokenized = d.profiles;
  for (auto& p : tokenized) tokenizer.TokenizeProfile(p, dict);
  const EditDistanceMatcher matcher(0.75, 256);
  Rng rng(4);
  for (auto _ : state) {
    const auto& a = tokenized[rng.NextU32() % tokenized.size()];
    const auto& b = tokenized[rng.NextU32() % tokenized.size()];
    benchmark::DoNotOptimize(matcher.Similarity(a, b));
  }
}
BENCHMARK(BM_EditDistanceMatch);

void BM_PipelineIngestEmit(benchmark::State& state) {
  const Dataset& d = SharedMovies();
  for (auto _ : state) {
    state.PauseTiming();
    PierOptions options;
    options.kind = d.kind;
    options.strategy = static_cast<PierStrategy>(state.range(0));
    PierPipeline pipeline(options);
    const auto increments = SplitIntoIncrements(d, 20);
    state.ResumeTiming();
    size_t emitted = 0;
    for (const auto& inc : increments) {
      std::vector<EntityProfile> profiles(
          d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
          d.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
      pipeline.Ingest(std::move(profiles));
      emitted += pipeline.EmitBatch(256).size();
    }
    benchmark::DoNotOptimize(emitted);
  }
}
BENCHMARK(BM_PipelineIngestEmit)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
