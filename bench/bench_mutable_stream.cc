// Mutable-stream overhead gates: the price of deletability. Every
// pipeline pair filter is the retractable PairFilter
// (model/pair_filter.h): an exact pair registry, partner lists indexed
// by profile id, that answers membership by scanning the shorter of
// two partner lists. Its gate:
//   pair filter <= --gate-pair-filter (default 1.0x: the PairFilter's
//                  TestAndAdd ns/op over the append-only
//                  ScalableBloomFilter's, on the same pair stream)
//
// The deletable Bloom alternative, a 2-bit counting Bloom filter
// (util/counting_bloom_filter.h), is gated against the append-only
// 1-bit scalable filter over the same key stream. The counting layout
// costs exactly 2 bits per cell vs 1, so the design memory ratio is
// 2.0x, and TestAndAdd touches the same cells through slightly wider
// bit arithmetic, so latency should stay close to parity:
//   memory  <= --gate-memory  (default 2.0x: the 2-bit layout, no
//              hidden slack)
//   latency <= --gate-latency (default 1.3x TestAndAdd ns/op)
//
// All ratios are best-of-reps. Pass 0 to disable a gate. Exit status:
// 0 within the gates, 1 not. BENCH_mutation.json in the repo root is
// the committed baseline; see README for the refresh procedure.
//
// And (no gate) the end-to-end mutable-pipeline mutation
// throughput: deletes and corrections per second through PierPipeline
// on a census workload, so regressions in the retraction path
// (prioritizer purge, pair-filter retraction, cluster re-resolve) show up
// in the same baseline file.
//
// Arguments:
//   --gate-memory=F     max counting/append-only memory ratio
//   --gate-latency=F    max counting/append-only TestAndAdd ns ratio
//   --gate-pair-filter=F  max retractable-PairFilter/append-only
//                       TestAndAdd ns ratio on the pair stream
//   --json-out=FILE     write the machine-readable baseline JSON
//   PIER_BENCH_SCALE    tiny|small|paper workload size

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_harness.h"
#include "core/pier_pipeline.h"
#include "model/pair_filter.h"
#include "util/counting_bloom_filter.h"
#include "util/hashing.h"
#include "util/scalable_bloom_filter.h"
#include "util/stopwatch.h"
#include "tools/flags.h"

namespace {

using namespace pier;

struct FilterRep {
  double append_ns_per_op = 0.0;
  double counting_ns_per_op = 0.0;
  size_t append_bytes = 0;
  size_t counting_bytes = 0;
  double pair_filter_ns_per_op = 0.0;
  size_t pair_filter_bytes = 0;
  double pair_bloom_ns_per_op = 0.0;
};

// Partners per profile in the pair stream: about what census-scale
// blocking yields per profile.
constexpr size_t kPartnersPerProfile = 40;

FilterRep RunFilterRep(size_t num_keys) {
  FilterRep rep;
  {
    ScalableBloomFilter filter;
    Stopwatch sw;
    for (size_t i = 0; i < num_keys; ++i) {
      (void)filter.TestAndAdd(Mix64(i));
    }
    rep.append_ns_per_op =
        sw.ElapsedSeconds() * 1e9 / static_cast<double>(num_keys);
    rep.append_bytes = filter.ApproxMemoryBytes();
  }
  {
    ScalableCountingBloomFilter filter;
    Stopwatch sw;
    for (size_t i = 0; i < num_keys; ++i) {
      (void)filter.TestAndAdd(Mix64(i));
    }
    rep.counting_ns_per_op =
        sw.ElapsedSeconds() * 1e9 / static_cast<double>(num_keys);
    rep.counting_bytes = filter.ApproxMemoryBytes();
  }
  // num_keys pairs over num_keys / (kPartnersPerProfile / 2) ids.
  const uint64_t profiles = num_keys * 2 / kPartnersPerProfile + 2;
  std::vector<std::pair<ProfileId, ProfileId>> pairs(num_keys);
  for (size_t i = 0; i < num_keys; ++i) {
    const auto x = static_cast<ProfileId>(Mix64(i) % profiles);
    auto y = static_cast<ProfileId>(Mix64(i + num_keys) % profiles);
    if (y == x) y = static_cast<ProfileId>((x + 1) % profiles);
    pairs[i] = {x, y};
  }
  {
    PairFilter filter;
    Stopwatch sw;
    for (const auto& [x, y] : pairs) (void)filter.TestAndAdd(x, y);
    rep.pair_filter_ns_per_op =
        sw.ElapsedSeconds() * 1e9 / static_cast<double>(num_keys);
    rep.pair_filter_bytes = filter.ApproxMemoryBytes();
  }
  {
    // The append-only Bloom filter on the same pairs, keyed as the
    // baselines key their executed pairs.
    ScalableBloomFilter filter;
    Stopwatch sw;
    for (const auto& [x, y] : pairs) (void)filter.TestAndAdd(PairKey(x, y));
    rep.pair_bloom_ns_per_op =
        sw.ElapsedSeconds() * 1e9 / static_cast<double>(num_keys);
  }
  return rep;
}

struct MutationRep {
  double mutations_per_s = 0.0;
  uint64_t deletes = 0;
  uint64_t updates = 0;
};

MutationRep RunMutationRep(const Dataset& dataset) {
  PierOptions options;
  options.kind = dataset.kind;
  options.strategy = PierStrategy::kIPes;
  options.mutable_stream = true;
  PierPipeline pipeline(options);
  pipeline.Ingest(dataset.profiles);
  // Pre-populate the executed filter / pair registries so retraction
  // has real state to withdraw.
  while (!pipeline.EmitBatch(1024).empty()) {
  }

  MutationRep rep;
  Stopwatch sw;
  for (ProfileId id = 0; id + 1 < dataset.profiles.size(); id += 2) {
    pipeline.Delete({id});
    ++rep.deletes;
    EntityProfile replacement =
        dataset.profiles[(id + 17) % dataset.profiles.size()];
    replacement.id = id + 1;
    pipeline.Update({std::move(replacement)});
    ++rep.updates;
  }
  const double seconds = sw.ElapsedSeconds();
  rep.mutations_per_s =
      seconds > 0.0
          ? static_cast<double>(rep.deletes + rep.updates) / seconds
          : 0.0;
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Flags args = tools::ParseArgs(
      argc, argv,
      {"gate-memory", "gate-latency", "gate-pair-filter", "json-out"});
  const double gate_memory = tools::GetNumber<double>(args, "gate-memory", 2.0);
  const double gate_latency =
      tools::GetNumber<double>(args, "gate-latency", 1.3);
  const double gate_pair_filter =
      tools::GetNumber<double>(args, "gate-pair-filter", 1.0);
  const std::string json_out = tools::Get(args, "json-out", "");

  const bool paper = bench::PaperScale();
  const bool tiny = bench::TinyScale();
  const size_t num_keys = paper ? 4000000 : tiny ? 200000 : 1000000;
  const size_t reps = 3;

  // Filter microbench: same key stream through both filters.
  double best_append_ns = 0.0;
  double best_counting_ns = 0.0;
  double best_pair_filter_ns = 0.0;
  double best_pair_bloom_ns = 0.0;
  size_t append_bytes = 0;
  size_t counting_bytes = 0;
  size_t pair_filter_bytes = 0;
  RunFilterRep(num_keys);  // warm-up
  std::printf("rep,append_ns_per_op,counting_ns_per_op,append_bytes,"
              "counting_bytes,pair_filter_ns_per_op,pair_filter_bytes,"
              "pair_bloom_ns_per_op\n");
  for (size_t r = 0; r < reps; ++r) {
    const FilterRep rep = RunFilterRep(num_keys);
    if (best_append_ns == 0.0 || rep.append_ns_per_op < best_append_ns) {
      best_append_ns = rep.append_ns_per_op;
    }
    if (best_counting_ns == 0.0 ||
        rep.counting_ns_per_op < best_counting_ns) {
      best_counting_ns = rep.counting_ns_per_op;
    }
    if (best_pair_filter_ns == 0.0 ||
        rep.pair_filter_ns_per_op < best_pair_filter_ns) {
      best_pair_filter_ns = rep.pair_filter_ns_per_op;
    }
    if (best_pair_bloom_ns == 0.0 ||
        rep.pair_bloom_ns_per_op < best_pair_bloom_ns) {
      best_pair_bloom_ns = rep.pair_bloom_ns_per_op;
    }
    append_bytes = rep.append_bytes;
    counting_bytes = rep.counting_bytes;
    pair_filter_bytes = rep.pair_filter_bytes;
    std::printf("%zu,%.2f,%.2f,%zu,%zu,%.2f,%zu,%.2f\n", r,
                rep.append_ns_per_op, rep.counting_ns_per_op, rep.append_bytes,
                rep.counting_bytes, rep.pair_filter_ns_per_op,
                rep.pair_filter_bytes, rep.pair_bloom_ns_per_op);
  }
  const double memory_ratio =
      append_bytes > 0
          ? static_cast<double>(counting_bytes) /
                static_cast<double>(append_bytes)
          : 0.0;
  const double latency_ratio =
      best_append_ns > 0.0 ? best_counting_ns / best_append_ns : 0.0;
  const double pair_filter_ratio =
      best_pair_bloom_ns > 0.0 ? best_pair_filter_ns / best_pair_bloom_ns
                               : 0.0;

  // End-to-end mutation throughput (report only, no gate).
  CensusOptions census;
  census.num_records = paper ? 20000 : tiny ? 1000 : 5000;
  const Dataset dataset = GenerateCensus(census);
  const MutationRep mutation = RunMutationRep(dataset);
  std::printf("mutations_per_s,%.1f,deletes,%llu,updates,%llu\n",
              mutation.mutations_per_s,
              static_cast<unsigned long long>(mutation.deletes),
              static_cast<unsigned long long>(mutation.updates));

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << "{\n"
        << "  \"bench\": \"bench_mutable_stream\",\n"
        << "  \"scale\": \"" << (paper ? "paper" : tiny ? "tiny" : "small")
        << "\",\n"
        << "  \"keys\": " << num_keys << ",\n"
        << "  \"append_only\": {\n"
        << "    \"testandadd_ns\": " << best_append_ns << ",\n"
        << "    \"memory_bytes\": " << append_bytes << "\n"
        << "  },\n"
        << "  \"counting\": {\n"
        << "    \"testandadd_ns\": " << best_counting_ns << ",\n"
        << "    \"memory_bytes\": " << counting_bytes << "\n"
        << "  },\n"
        << "  \"retractable_pair_filter\": {\n"
        << "    \"testandadd_ns\": " << best_pair_filter_ns << ",\n"
        << "    \"memory_bytes\": " << pair_filter_bytes << ",\n"
        << "    \"partners_per_profile\": " << kPartnersPerProfile << ",\n"
        << "    \"append_only_ns\": " << best_pair_bloom_ns << "\n"
        << "  },\n"
        << "  \"memory_ratio\": " << memory_ratio << ",\n"
        << "  \"latency_ratio\": " << latency_ratio << ",\n"
        << "  \"gate_memory\": " << gate_memory << ",\n"
        << "  \"gate_latency\": " << gate_latency << ",\n"
        << "  \"pair_filter_ratio\": " << pair_filter_ratio << ",\n"
        << "  \"gate_pair_filter\": " << gate_pair_filter << ",\n"
        << "  \"mutation_profiles\": " << dataset.profiles.size() << ",\n"
        << "  \"mutations_per_s\": " << mutation.mutations_per_s << "\n"
        << "}\n";
  }

  std::fprintf(stderr,
               "gate: retractable pair filter %.1f ns/op, %.2fx the "
               "append-only filter on the same pairs (gate %.2fx), %zu "
               "bytes; counting filter %.2fx memory (gate %.2fx), %.2fx "
               "TestAndAdd latency (gate %.2fx); mutations %.1f/s\n",
               best_pair_filter_ns, pair_filter_ratio, gate_pair_filter,
               pair_filter_bytes, memory_ratio, gate_memory, latency_ratio,
               gate_latency, mutation.mutations_per_s);
  bool failed = false;
  if (gate_memory > 0.0 && memory_ratio > gate_memory) {
    std::fprintf(stderr, "FAIL: counting-filter memory ratio above gate\n");
    failed = true;
  }
  if (gate_latency > 0.0 && latency_ratio > gate_latency) {
    std::fprintf(stderr, "FAIL: counting-filter latency ratio above gate\n");
    failed = true;
  }
  if (gate_pair_filter > 0.0 && pair_filter_ratio > gate_pair_filter) {
    std::fprintf(stderr, "FAIL: retractable pair filter latency above gate\n");
    failed = true;
  }
  if (failed) return 1;
  std::fprintf(stderr, "OK\n");
  return 0;
}
