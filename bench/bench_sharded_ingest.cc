// Sharded ingest throughput gate: streams the heterogeneous (dbpedia)
// dataset through ShardedPipeline at 1/2/4 shards and measures
// end-to-end ingest throughput (profiles/s over ingest ->
// NotifyStreamEnd -> Drain). Sharding partitions the blocking-key
// space, so each shard's prioritizer/blocking mutex serializes only
// its own slice -- throughput should scale with shard count until the
// box runs out of cores.
//
// The gate: best-of-reps throughput at 4 shards must be at least
// --gate-speedup x the 1-shard best. The gate is opt-in (default 0 =
// report only) because the ratio is meaningless on single-core
// machines; the CI bench-smoke job runs with --gate-speedup=1.7 on its
// multi-core runner. Exit status: 0 within the gate, 1 below it.
// BENCH_sharding.json in the repo root is the committed baseline; see
// README for the refresh procedure.
//
// Arguments:
//   --gate-speedup=F    minimum 4-shard/1-shard ratio (default 0 = off)
//   --json-out=FILE     write the machine-readable baseline JSON
//   PIER_BENCH_SCALE    tiny|small|paper workload size

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_harness.h"
#include "stream/sharded_pipeline.h"
#include "util/stopwatch.h"
#include "tools/flags.h"

namespace {

using namespace pier;

struct RepResult {
  double seconds = 0.0;
  double profiles_per_s = 0.0;
  uint64_t comparisons = 0;
  uint64_t matches = 0;
};

RepResult RunRep(const Dataset& dataset, const Matcher& matcher,
                 size_t shard_count, size_t num_increments) {
  ShardedOptions options;
  options.pipeline.kind = dataset.kind;
  options.pipeline.strategy = PierStrategy::kIPes;
  options.pipeline.execution_threads = 1;  // scaling comes from shards
  options.shard_count = shard_count;
  ShardedPipeline sharded(options, &matcher, [](ProfileId, ProfileId) {});

  const auto increments = SplitIntoIncrements(dataset, num_increments);
  Stopwatch sw;
  for (const auto& inc : increments) {
    std::vector<EntityProfile> batch(
        dataset.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        dataset.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    sharded.Ingest(std::move(batch));
  }
  sharded.NotifyStreamEnd();
  sharded.Drain();

  RepResult rep;
  rep.seconds = sw.ElapsedSeconds();
  rep.profiles_per_s =
      rep.seconds > 0.0
          ? static_cast<double>(dataset.profiles.size()) / rep.seconds
          : 0.0;
  rep.comparisons = sharded.comparisons_processed();
  rep.matches = sharded.matches_found();
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Flags args =
      tools::ParseArgs(argc, argv, {"gate-speedup", "json-out"});
  // Off by default: meaningless on 1 core.
  const double gate_speedup =
      tools::GetNumber<double>(args, "gate-speedup", 0.0);
  const std::string json_out = tools::Get(args, "json-out", "");

  const bool paper = bench::PaperScale();
  const bool tiny = bench::TinyScale();
  const Dataset dataset = bench::MakeDbpedia();
  const size_t num_increments = 20;
  const JaccardMatcher matcher(0.35);
  const std::vector<size_t> shard_counts = {1, 2, 4};
  const size_t reps = 3;

  std::fprintf(stderr, "hardware threads: %u\n",
               std::thread::hardware_concurrency());

  std::vector<double> best(shard_counts.size(), 0.0);
  std::printf("shards,rep,profiles,seconds,profiles_per_s,comparisons,"
              "matches\n");
  for (size_t s = 0; s < shard_counts.size(); ++s) {
    // Warm-up rep (allocator, page cache); then reported reps.
    RunRep(dataset, matcher, shard_counts[s], num_increments);
    for (size_t r = 0; r < reps; ++r) {
      const RepResult rep =
          RunRep(dataset, matcher, shard_counts[s], num_increments);
      if (rep.profiles_per_s > best[s]) best[s] = rep.profiles_per_s;
      std::printf("%zu,%zu,%zu,%.4f,%.1f,%llu,%llu\n", shard_counts[s], r,
                  dataset.profiles.size(), rep.seconds, rep.profiles_per_s,
                  static_cast<unsigned long long>(rep.comparisons),
                  static_cast<unsigned long long>(rep.matches));
    }
  }

  const double speedup_4v1 = best[0] > 0.0 ? best[2] / best[0] : 0.0;

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << "{\n"
        << "  \"bench\": \"bench_sharded_ingest\",\n"
        << "  \"scale\": \"" << (paper ? "paper" : tiny ? "tiny" : "small")
        << "\",\n"
        << "  \"profiles\": " << dataset.profiles.size() << ",\n"
        << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"gate_speedup\": " << gate_speedup << ",\n"
        << "  \"best_profiles_per_s\": {\n"
        << "    \"shards_1\": " << best[0] << ",\n"
        << "    \"shards_2\": " << best[1] << ",\n"
        << "    \"shards_4\": " << best[2] << "\n"
        << "  },\n"
        << "  \"speedup_4v1\": " << speedup_4v1 << "\n"
        << "}\n";
  }

  std::fprintf(stderr,
               "gate: 4-shard ingest throughput %.1f profiles/s vs 1-shard "
               "%.1f (speedup %.2fx, gate %.2fx)\n",
               best[2], best[0], speedup_4v1, gate_speedup);
  if (gate_speedup > 0.0 && speedup_4v1 < gate_speedup) {
    std::fprintf(stderr, "FAIL: sharded ingest speedup below gate\n");
    return 1;
  }
  std::fprintf(stderr, "OK\n");
  return 0;
}
