// Closed-loop serving gate: streams a dataset through the
// multi-threaded RealtimePipeline (ingest + match execution + cluster
// maintenance) while a dedicated query thread hammers the live cluster
// index with ClusterIdOf/ClusterOf point queries the whole time. This
// is the production read path under genuine write concurrency -- the
// adversarial setting for the seqlock read side (every AddMatch and
// TrackUpTo forces retries).
//
// The gate: query p99 latency under concurrent ingest must stay below
// a committed budget (serve.query_ns is recorded per query inside the
// index). Reps use fresh registries and the minimum p99 across reps is
// gated, suppressing scheduler noise. Exit status: 0 within budget,
// 1 over it (the CI bench-smoke job gates on this). BENCH_serving.json
// in the repo root is the committed baseline; see README for the
// refresh procedure.
//
// Arguments:
//   --gate-p99-ns=N     p99 budget in nanoseconds (default 1000000)
//   --json-out=FILE     write the machine-readable baseline JSON
//   PIER_BENCH_SCALE    tiny|small|paper workload size

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_harness.h"
#include "obs/metrics.h"
#include "stream/realtime_pipeline.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "tools/flags.h"

namespace {

using namespace pier;

struct RepResult {
  uint64_t queries = 0;
  uint64_t retries = 0;
  uint64_t p50_ns = 0;
  uint64_t p90_ns = 0;
  uint64_t p99_ns = 0;
  double ingest_seconds = 0.0;
  uint64_t matches = 0;
  size_t clusters = 0;
};

RepResult RunRep(const Dataset& dataset, const Matcher& matcher,
                 size_t num_increments, size_t execution_threads) {
  obs::MetricsRegistry registry;
  PierOptions options;
  options.kind = dataset.kind;
  options.strategy = PierStrategy::kIPes;
  options.execution_threads = execution_threads;
  options.metrics = &registry;
  RealtimePipeline realtime(options, &matcher,
                            [](ProfileId, ProfileId) {});

  // The query thread runs the whole closed loop: it never pauses for
  // ingest, so every query races a concurrent writer. Mixed load:
  // mostly ClusterIdOf point lookups, every 16th query a full
  // ClusterOf member-list materialization.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sink{0};
  std::thread querier([&] {
    Rng rng(7);
    uint64_t local = 0;
    uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t universe = realtime.clusters().universe_size();
      if (universe == 0) {
        std::this_thread::yield();
        continue;
      }
      const auto id =
          static_cast<ProfileId>(rng.UniformInt(0, universe - 1));
      if (++n % 16 == 0) {
        local += realtime.ClusterOf(id).members.size();
      } else {
        local += realtime.ClusterIdOf(id);
      }
    }
    sink.fetch_add(local);
  });

  const auto increments = SplitIntoIncrements(dataset, num_increments);
  Stopwatch sw;
  for (const auto& inc : increments) {
    std::vector<EntityProfile> batch(
        dataset.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        dataset.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    realtime.Ingest(std::move(batch));
  }
  realtime.Drain();
  const double ingest_seconds = sw.ElapsedSeconds();
  stop.store(true);
  querier.join();

  RepResult rep;
  const obs::Histogram* latency = registry.GetHistogram("serve.query_ns");
  rep.queries = latency->Count();
  rep.retries = registry.GetCounter("serve.query_retries")->Value();
  rep.p50_ns = latency->Quantile(0.5);
  rep.p90_ns = latency->Quantile(0.9);
  rep.p99_ns = latency->Quantile(0.99);
  rep.ingest_seconds = ingest_seconds;
  rep.matches = realtime.matches_found();
  rep.clusters = realtime.clusters().NumNonTrivialClusters();
  if (sink.load() == uint64_t{0xdeadbeef}) std::abort();  // keep sink live
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Flags args =
      tools::ParseArgs(argc, argv, {"gate-p99-ns", "json-out"});
  // 1 ms: the sub-ms ROADMAP target.
  const auto gate_p99_ns =
      tools::GetNumber<uint64_t>(args, "gate-p99-ns", 1000000);
  const std::string json_out = tools::Get(args, "json-out", "");

  const bool paper = bench::PaperScale();
  const bool tiny = bench::TinyScale();
  BibliographicOptions data_options;
  data_options.source0_count = paper ? 2600 : tiny ? 400 : 1200;
  data_options.source1_count = paper ? 2300 : tiny ? 350 : 1000;
  const Dataset dataset = GenerateBibliographic(data_options);
  const size_t num_increments = 50;
  const size_t execution_threads = 2;
  const JaccardMatcher matcher(0.35);
  const size_t reps = 3;

  // Warm-up rep (allocator, caches); then gated reps.
  RunRep(dataset, matcher, num_increments, execution_threads);
  std::vector<RepResult> results;
  RepResult best;  // rep with the lowest p99
  best.p99_ns = ~uint64_t{0};
  for (size_t r = 0; r < reps; ++r) {
    const RepResult rep =
        RunRep(dataset, matcher, num_increments, execution_threads);
    results.push_back(rep);
    if (rep.p99_ns < best.p99_ns) best = rep;
  }

  std::printf("rep,queries,retries,p50_ns,p90_ns,p99_ns,ingest_s,"
              "matches,clusters\n");
  for (size_t r = 0; r < results.size(); ++r) {
    const RepResult& rep = results[r];
    std::printf("%zu,%llu,%llu,%llu,%llu,%llu,%.4f,%llu,%zu\n", r,
                static_cast<unsigned long long>(rep.queries),
                static_cast<unsigned long long>(rep.retries),
                static_cast<unsigned long long>(rep.p50_ns),
                static_cast<unsigned long long>(rep.p90_ns),
                static_cast<unsigned long long>(rep.p99_ns),
                rep.ingest_seconds,
                static_cast<unsigned long long>(rep.matches), rep.clusters);
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << "{\n"
        << "  \"bench\": \"bench_closed_loop_serving\",\n"
        << "  \"scale\": \"" << (paper ? "paper" : tiny ? "tiny" : "small")
        << "\",\n"
        << "  \"gate_p99_ns\": " << gate_p99_ns << ",\n"
        << "  \"best\": {\n"
        << "    \"queries\": " << best.queries << ",\n"
        << "    \"retries\": " << best.retries << ",\n"
        << "    \"p50_ns\": " << best.p50_ns << ",\n"
        << "    \"p90_ns\": " << best.p90_ns << ",\n"
        << "    \"p99_ns\": " << best.p99_ns << ",\n"
        << "    \"ingest_seconds\": " << best.ingest_seconds << ",\n"
        << "    \"matches\": " << best.matches << ",\n"
        << "    \"clusters\": " << best.clusters << "\n"
        << "  }\n"
        << "}\n";
  }

  std::fprintf(stderr,
               "gate: query p99 under concurrent ingest %llu ns "
               "(budget %llu ns), %llu queries/rep best\n",
               static_cast<unsigned long long>(best.p99_ns),
               static_cast<unsigned long long>(gate_p99_ns),
               static_cast<unsigned long long>(best.queries));
  if (best.queries == 0) {
    std::fprintf(stderr, "FAIL: no queries executed\n");
    return 1;
  }
  if (best.p99_ns > gate_p99_ns) {
    std::fprintf(stderr, "FAIL: serving p99 above budget\n");
    return 1;
  }
  std::fprintf(stderr, "OK\n");
  return 0;
}
