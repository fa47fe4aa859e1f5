// pier_cli: run progressive incremental entity resolution over your
// own CSV data from the command line.
//
//   pier_cli --profiles=data.csv [--truth=truth.csv]
//            [--kind=dirty|clean-clean]
//            [--algorithm=auto|I-PCS|I-PBS|I-PES|SPER-SK|FB-PCS]
//            [--matcher=JS|ED|COS] [--threshold=0.5]
//            [--increments=100] [--rate=0] [--budget=inf]
//            [--max-block-size=1000] [--beta=0.5] [--threads=1]
//            [--frontier-seed=42] [--cost-model=measured|modeled]
//            [--metrics-out=FILE] [--metrics-interval=F]
//            [--checkpoint-dir=DIR] [--checkpoint-every=N]
//            [--checkpoint-keep=N] [--resume-from=FILE|DIR]
//            [--print-matches] [--serve-queries=N] [--ingest-shards=N]
//            [--mutation-rate=F]
//
// The profiles file uses the long format of datagen/dataset_io.h
// (profile_id,source,attribute,value). With --truth (and neither
// --print-matches nor --serve-queries), evaluation mode replays the
// data through the stream simulator and reports progressive quality.
// Otherwise resolution mode (or serving mode, --serve-queries) streams
// the increments through one ShardedPipeline at every --ingest-shards
// count, N=1 included, signals stream end and drains it. Resolution
// mode then prints its end-state answer on stdout: the drained match
// set as sorted `x,y` lines with x < y, each pair once, dropping pairs
// with a deleted endpoint. A pair matched against a profile version
// that a later correction replaced stays in the answer, even when the
// served clusters no longer join its endpoints: a correction withdraws
// the old version's edges from the cluster index, not from this list.
//
// --algorithm picks the prioritization strategy (case-insensitive):
// the paper trio plus the frontier strategies SPER-SK (stochastic
// top-k sampling, seeded by --frontier-seed for deterministic replay)
// and FB-PCS (verdict feedback folded back into block scores). `auto`
// runs the selector heuristic over a data sample. Exit status 2: an
// unknown flag; an unknown --algorithm, --matcher or --kind name;
// --threads or --ingest-shards above 256 (each is an OS thread); a
// simulator flag (--rate, --budget, --cost-model, --metrics-interval,
// --checkpoint-*, --resume-from) outside evaluation mode; and
// --ingest-shards or --mutation-rate in evaluation mode.
//
// --metrics-out streams JSON-lines metric snapshots (see src/obs/) to
// FILE: one snapshot per --metrics-interval seconds of (virtual) run
// time, plus a final one. Stage counters cover ingest/blocking/
// prioritization (pipeline.*), match execution (executor.*), the
// adaptive-K controller (findk.*), the simulator (sim.*), and
// checkpointing (persist.*).
//
// --checkpoint-dir makes the evaluation run durable: a snapshot of the
// full ER state lands in DIR every --checkpoint-every increments
// (rotated to the newest --checkpoint-keep). After a crash,
// --resume-from=DIR (or a specific .piersnap file) continues the run
// from the latest checkpoint; with --cost-model=modeled the resumed
// curve is bit-identical to an uninterrupted run.
//
// --serve-queries=N runs the closed-loop serving mode instead: the
// same run, with this thread issuing N ClusterOf() point queries
// against the live cluster index between increments (the remainder
// after the drain). Reports query latency p50/p99 (from
// the serve.* metrics), cluster statistics, and -- when --truth is
// given -- the cluster-level recall of the served index.
//
// --ingest-shards=N partitions the blocking space across N shard
// pipelines behind bounded microbatch queues, one worker thread each,
// delivering into one cluster index (stream/sharded_pipeline.h): N-way
// ingest parallelism. The drained match set measures the same at
// N=1, 2 and 4; the delivered comparison count and the verdict order
// depend on thread timing at every N (DESIGN.md §8). The evaluation
// mode is single-engine by design (virtual time needs one
// deterministic event loop).
//
// --mutation-rate=F turns the replay into a mutable stream: after each
// increment, roughly F mutations per ingested profile are synthesized
// over the already-ingested prefix, alternating between deletes and
// corrections (a profile's content replaced by another record's
// attributes -- the late-arriving-fix workload). Implies
// mutable_stream, so the pipeline retracts the affected blocks,
// priorities, and clusters (see DESIGN.md). The evaluation mode's
// simulator replays an append-only schedule. Output caveat: the answer
// is taken after the drain, so a pair is not printed if an endpoint
// stands deleted at stream end, even if it matched before the delete.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy_selector.h"
#include "datagen/dataset_io.h"
#include "eval/cluster_recall.h"
#include "eval/report.h"
#include "obs/metrics.h"
#include "obs/metrics_io.h"
#include "persist/checkpoint_manager.h"
#include "similarity/matcher.h"
#include "stream/pier_adapter.h"
#include "stream/sharded_pipeline.h"
#include "stream/stream_simulator.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "flags.h"

namespace {

using pier::tools::Get;
using pier::tools::GetNumber;
using pier::tools::ParseArgs;

int Usage() {
  std::fprintf(
      stderr,
      "usage: pier_cli --profiles=FILE [--truth=FILE] [--kind=dirty|"
      "clean-clean]\n"
      "                [--algorithm=auto|I-PCS|I-PBS|I-PES|SPER-SK|FB-PCS]\n"
      "                [--matcher=JS|ED|COS]\n"
      "                [--threshold=F] [--increments=N] [--rate=F] "
      "[--budget=F]\n"
      "                [--max-block-size=N] [--beta=F] [--threads=N]\n"
      "                [--frontier-seed=N] [--cost-model=measured|modeled]\n"
      "                [--metrics-out=FILE] [--metrics-interval=F]\n"
      "                [--checkpoint-dir=DIR] [--checkpoint-every=N]\n"
      "                [--checkpoint-keep=N] [--resume-from=FILE|DIR]\n"
      "                [--print-matches] [--serve-queries=N]\n"
      "                [--ingest-shards=N] [--mutation-rate=F]\n");
  return 2;
}

// Synthesizes the mutable-stream workload for --mutation-rate: after
// each increment, issues `rate * increment_size` mutations (budgeted
// fractionally so small increments still mutate at the configured
// rate) against uniformly random already-ingested ids, alternating
// deletes with corrections. Corrections splice another record's
// attributes under the victim's id, so a later correction back is
// possible and deleted ids can be revived -- the same shapes the
// mutable-stream oracle tests exercise. Deterministic across runs.
class MutationDriver {
 public:
  MutationDriver(const pier::Dataset& dataset, double rate)
      : dataset_(dataset), rate_(rate) {}

  // `ingested` is the number of profiles pushed so far (ids [0,
  // ingested) exist, possibly tombstoned); `increment_size` is the
  // increment that just landed. Returns false if a mutation was
  // rejected (stopped/poisoned pipeline).
  template <typename DeleteFn, typename UpdateFn>
  bool AfterIncrement(size_t ingested, size_t increment_size,
                      DeleteFn&& do_delete, UpdateFn&& do_update) {
    if (rate_ <= 0.0 || ingested == 0) return true;
    budget_ += rate_ * static_cast<double>(increment_size);
    while (budget_ >= 1.0) {
      budget_ -= 1.0;
      const auto id =
          static_cast<pier::ProfileId>(rng_.UniformInt(0, ingested - 1));
      if (next_is_delete_) {
        if (!do_delete(id)) return false;
        ++deletes_;
      } else {
        pier::EntityProfile replacement =
            dataset_.profiles[(static_cast<size_t>(id) * 7 + 13) %
                              dataset_.profiles.size()];
        replacement.id = id;
        if (!do_update(std::move(replacement))) return false;
        ++updates_;
      }
      next_is_delete_ = !next_is_delete_;
    }
    return true;
  }

  uint64_t deletes() const { return deletes_; }
  uint64_t updates() const { return updates_; }

 private:
  const pier::Dataset& dataset_;
  double rate_;
  double budget_ = 0.0;
  bool next_is_delete_ = true;
  uint64_t deletes_ = 0;
  uint64_t updates_ = 0;
  pier::Rng rng_{271828};
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pier;
  const auto args = ParseArgs(
      argc, argv,
      {"profiles", "truth", "kind", "algorithm", "matcher", "threshold",
       "increments", "rate", "budget", "max-block-size", "beta", "threads",
       "frontier-seed", "cost-model", "metrics-out", "metrics-interval",
       "checkpoint-dir", "checkpoint-every", "checkpoint-keep", "resume-from",
       "print-matches", "serve-queries", "ingest-shards", "mutation-rate"});
  const std::string profiles_path = Get(args, "profiles", "");
  if (profiles_path.empty()) return Usage();

  const std::string kind_name = Get(args, "kind", "dirty");
  if (kind_name != "dirty" && kind_name != "clean-clean") {
    std::fprintf(stderr,
                 "pier_cli: unknown kind '%s' (valid names: dirty, "
                 "clean-clean)\n",
                 kind_name.c_str());
    return 2;
  }
  const DatasetKind kind = kind_name == "clean-clean"
                               ? DatasetKind::kCleanClean
                               : DatasetKind::kDirty;

  std::ifstream profiles_in(profiles_path);
  if (!profiles_in) {
    std::fprintf(stderr, "cannot open %s\n", profiles_path.c_str());
    return 1;
  }
  std::ifstream truth_in;
  std::istream* truth_ptr = nullptr;
  const std::string truth_path = Get(args, "truth", "");
  if (!truth_path.empty()) {
    truth_in.open(truth_path);
    if (!truth_in) {
      std::fprintf(stderr, "cannot open %s\n", truth_path.c_str());
      return 1;
    }
    truth_ptr = &truth_in;
  }
  auto dataset = ReadDatasetCsv(profiles_in, truth_ptr, profiles_path, kind);
  if (!dataset) {
    std::fprintf(stderr, "malformed dataset CSV\n");
    return 1;
  }
  std::fprintf(stderr, "loaded %zu profiles (%zu truth pairs)\n",
               dataset->profiles.size(), dataset->truth.size());

  // Options.
  PierOptions options;
  options.kind = kind;
  options.blocking.max_block_size =
      GetNumber<size_t>(args, "max-block-size", 1000);
  options.prioritizer.beta = GetNumber(args, "beta", 0.5);
  options.execution_threads = GetNumber<size_t>(args, "threads", 1);

  options.prioritizer.frontier_seed =
      GetNumber<uint64_t>(args, "frontier-seed", 42);

  // Names resolve through the strategy table, case-insensitively.
  const std::string algorithm = Get(args, "algorithm", "auto");
  std::string algorithm_lower = algorithm;
  std::transform(algorithm_lower.begin(), algorithm_lower.end(),
                 algorithm_lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (algorithm_lower == "auto") {
    // Auto: analyze a sample with the selector heuristic.
    Tokenizer tokenizer;
    TokenDictionary dict;
    ProfileStore sample_store;
    BlockCollection sample_blocks(kind, options.blocking);
    const size_t sample = std::min<size_t>(1000, dataset->profiles.size());
    for (size_t i = 0; i < sample; ++i) {
      EntityProfile p = dataset->profiles[i];
      tokenizer.TokenizeProfile(p, dict);
      sample_blocks.AddProfile(p);
      sample_store.Add(std::move(p));
    }
    const auto rec = RecommendStrategy(sample_blocks, sample_store);
    options.strategy = rec.strategy;
    std::fprintf(stderr, "strategy: %s (%s)\n", ToString(rec.strategy),
                 rec.rationale.c_str());
  } else if (!ParseAlgorithmName(algorithm, &options.strategy)) {
    std::fprintf(stderr,
                 "pier_cli: unknown algorithm '%s' (valid names: auto, %s)\n",
                 algorithm.c_str(), KnownAlgorithmNames());
    return 2;
  }

  const std::string matcher_name = Get(args, "matcher", "JS");
  const auto matcher =
      MakeMatcher(matcher_name, GetNumber(args, "threshold", 0.5));
  if (!matcher) {
    std::fprintf(stderr,
                 "pier_cli: unknown matcher '%s' (valid names: %s)\n",
                 matcher_name.c_str(), KnownMatcherNames());
    return 2;
  }

  SimulatorOptions sim_options;
  sim_options.num_increments = GetNumber<size_t>(args, "increments", 100);
  sim_options.increments_per_second = GetNumber(args, "rate", 0.0);
  sim_options.time_budget_s =
      GetNumber(args, "budget", sim_options.time_budget_s);
  const std::string cost_mode = Get(args, "cost-model", "measured");
  if (cost_mode == "modeled") {
    sim_options.cost_mode = CostMeter::Mode::kModeled;
  } else if (cost_mode == "measured") {
    sim_options.cost_mode = CostMeter::Mode::kMeasured;
  } else {
    std::fprintf(stderr, "unknown --cost-model: %s\n", cost_mode.c_str());
    return Usage();
  }
  sim_options.execution_threads = options.execution_threads;
  sim_options.checkpoint_dir = Get(args, "checkpoint-dir", "");
  sim_options.checkpoint_every =
      GetNumber<size_t>(args, "checkpoint-every", 10);
  sim_options.checkpoint_keep = GetNumber<size_t>(args, "checkpoint-keep", 3);

  // Every shard and every match thread is an OS thread.
  constexpr size_t kMaxThreads = 256;
  const size_t ingest_shards = GetNumber<size_t>(args, "ingest-shards", 1);
  if (ingest_shards == 0 || ingest_shards > kMaxThreads ||
      options.execution_threads > kMaxThreads) {
    std::fprintf(stderr,
                 "--ingest-shards must be in [1, %zu] and --threads at most "
                 "%zu\n",
                 kMaxThreads, kMaxThreads);
    return Usage();
  }

  const double mutation_rate = GetNumber(args, "mutation-rate", 0.0);
  if (mutation_rate < 0.0 || mutation_rate > 1.0) {
    std::fprintf(stderr, "--mutation-rate must be in [0, 1]\n");
    return Usage();
  }
  options.mutable_stream = mutation_rate > 0.0;

  const size_t serve_queries = GetNumber<size_t>(args, "serve-queries", 0);
  if (serve_queries > 0 && args.count("print-matches")) {
    std::fprintf(stderr,
                 "--serve-queries is its own mode (no --print-matches)\n");
    return Usage();
  }
  // A flag the chosen mode never reads is rejected, not ignored: the
  // simulator's flags outside evaluation mode, the pipeline's in it.
  const bool evaluation = truth_ptr != nullptr &&
                          !args.count("print-matches") && serve_queries == 0;
  for (const char* flag : {"rate", "budget", "cost-model", "metrics-interval",
                           "checkpoint-dir", "checkpoint-every",
                           "checkpoint-keep", "resume-from"}) {
    if (!evaluation && args.count(flag)) {
      std::fprintf(stderr,
                   "--%s applies to evaluation mode only (--truth, no "
                   "--print-matches or --serve-queries)\n",
                   flag);
      return Usage();
    }
  }
  for (const char* flag : {"ingest-shards", "mutation-rate"}) {
    if (evaluation && args.count(flag)) {
      std::fprintf(stderr,
                   "--%s applies to resolution and serving mode only; the "
                   "simulator is one append-only engine\n",
                   flag);
      return Usage();
    }
  }

  // Observability: stream JSON-lines snapshots of every stage metric.
  obs::MetricsRegistry metrics;
  std::ofstream metrics_out;
  const std::string metrics_path = Get(args, "metrics-out", "");
  if (!metrics_path.empty()) {
    metrics_out.open(metrics_path);
    if (!metrics_out) {
      std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
      return 1;
    }
    options.metrics = &metrics;
    sim_options.metrics = &metrics;
    sim_options.metrics_out = &metrics_out;
    sim_options.metrics_interval_s =
        GetNumber(args, "metrics-interval", 1.0);
  }

  if (evaluation) {
    // Evaluation mode: progressive quality against the ground truth.
    const StreamSimulator simulator(&*dataset, sim_options);
    PierAdapter algorithm(options);
    RunResult result;
    const std::string resume_from = Get(args, "resume-from", "");
    if (!resume_from.empty()) {
      // Resume from a checkpoint file, or from the newest checkpoint
      // when given a directory.
      std::string snapshot_path = resume_from;
      std::error_code ec;
      if (std::filesystem::is_directory(snapshot_path, ec)) {
        const auto latest =
            persist::CheckpointManager::FindLatest(snapshot_path);
        if (!latest) {
          std::fprintf(stderr, "no checkpoints found in %s\n",
                       snapshot_path.c_str());
          return 1;
        }
        snapshot_path = *latest;
      }
      std::ifstream snapshot(snapshot_path, std::ios::binary);
      if (!snapshot) {
        std::fprintf(stderr, "cannot open %s\n", snapshot_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "resuming from %s\n", snapshot_path.c_str());
      std::string resume_error;
      auto resumed =
          simulator.Resume(algorithm, *matcher, snapshot, &resume_error);
      if (!resumed) {
        std::fprintf(stderr, "cannot resume from %s: %s\n",
                     snapshot_path.c_str(), resume_error.c_str());
        return 1;
      }
      result = std::move(*resumed);
    } else {
      result = simulator.Run(algorithm, *matcher);
    }
    PrintCurveCsv(std::cout, {result});
    std::printf("\n");
    PrintSummaryTable(std::cout, {result}, result.end_time);
    PrintMatcherQualityTable(std::cout, {result});
    return 0;
  }

  // Resolution and serving mode: one ShardedPipeline at every shard
  // count. Match callbacks never overlap, and Drain() returns after the
  // last one, so `matched_pairs` needs no lock.
  if (serve_queries > 0) options.metrics = &metrics;  // serve.query_ns
  MutationDriver mutations(*dataset, mutation_rate);
  ShardedOptions sharded_options;
  sharded_options.pipeline = options;
  sharded_options.shard_count = ingest_shards;
  std::vector<std::pair<ProfileId, ProfileId>> matched_pairs;
  ShardedPipeline sharded(sharded_options, matcher.get(),
                          [&](ProfileId a, ProfileId b) {
                            matched_pairs.emplace_back(std::min(a, b),
                                                       std::max(a, b));
                          });
  const auto increments =
      SplitIntoIncrements(*dataset, sim_options.num_increments);
  // Serving mode interleaves ClusterOf() point queries with ingest, the
  // production read path under genuine write concurrency.
  const size_t per_increment =
      increments.empty() ? 0 : serve_queries / increments.size();
  Rng rng(42);
  uint64_t clustered_answers = 0;
  size_t issued = 0;
  const auto issue = [&](size_t count) {
    const size_t universe = sharded.clusters().universe_size();
    if (universe == 0) return;
    for (size_t i = 0; i < count && issued < serve_queries; ++i, ++issued) {
      const auto id = static_cast<ProfileId>(rng.UniformInt(0, universe - 1));
      const serve::ClusterView view = sharded.ClusterOf(id);
      if (view.members.size() > 1) ++clustered_answers;
    }
  };
  const Stopwatch run_timer;
  for (const auto& inc : increments) {
    std::vector<EntityProfile> batch(
        dataset->profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        dataset->profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    if (!sharded.Ingest(std::move(batch))) return 1;
    if (!mutations.AfterIncrement(
            inc.end, inc.end - inc.begin,
            [&](ProfileId id) { return sharded.Delete({id}); },
            [&](EntityProfile p) {
              std::vector<EntityProfile> one;
              one.push_back(std::move(p));
              return sharded.Update(std::move(one));
            })) {
      return 1;
    }
    issue(per_increment);
  }
  sharded.NotifyStreamEnd();
  sharded.Drain();
  issue(serve_queries - issued);  // remainder against the drained index
  const double wall_s = run_timer.ElapsedSeconds();
  if (metrics_out.is_open()) {
    obs::WriteJsonLines(metrics_out, wall_s, metrics.Snapshot());
  }

  if (serve_queries > 0) {
    const obs::Histogram* latency = metrics.GetHistogram("serve.query_ns");
    std::printf("serve: %zu queries interleaved with %zu increments "
                "(%zu profiles, %zu ingest shards) in %.2fs\n",
                issued, increments.size(), dataset->profiles.size(),
                sharded.shard_count(), wall_s);
    std::printf("serve: query latency p50=%lluns p99=%lluns\n",
                static_cast<unsigned long long>(latency->Quantile(0.5)),
                static_cast<unsigned long long>(latency->Quantile(0.99)));
    std::printf("serve: %llu matches -> %zu non-trivial clusters; %llu/%zu "
                "queries answered from a multi-member cluster\n",
                static_cast<unsigned long long>(sharded.matches_found()),
                sharded.clusters().NumNonTrivialClusters(),
                static_cast<unsigned long long>(clustered_answers), issued);
    if (mutation_rate > 0.0) {
      std::printf("serve: %llu deletes, %llu corrections interleaved\n",
                  static_cast<unsigned long long>(mutations.deletes()),
                  static_cast<unsigned long long>(mutations.updates()));
    }
    if (truth_ptr != nullptr) {
      // The partition of every delivered match, whatever its order.
      ClusterRecallTracker recall(dataset->truth);
      for (const auto& [a, b] : matched_pairs) recall.AddMatch(a, b);
      std::printf("serve: cluster recall %.4f (%llu/%llu ground-truth "
                  "pairs co-clustered)\n",
                  recall.Recall(),
                  static_cast<unsigned long long>(recall.connected_pairs()),
                  static_cast<unsigned long long>(
                      recall.total_cluster_pairs()));
    }
    return 0;
  }

  // The end-state answer (see the header): a pair matched again after
  // a correction is printed once.
  std::sort(matched_pairs.begin(), matched_pairs.end());
  matched_pairs.erase(std::unique(matched_pairs.begin(), matched_pairs.end()),
                      matched_pairs.end());
  size_t printed_pairs = 0;
  for (const auto& [a, b] : matched_pairs) {
    if (sharded.clusters().IsDeleted(a) || sharded.clusters().IsDeleted(b)) {
      continue;
    }
    std::printf("%u,%u\n", a, b);
    ++printed_pairs;
  }
  std::fprintf(stderr,
               "processed %llu comparisons across %zu shards, %zu matched "
               "pairs\n",
               static_cast<unsigned long long>(sharded.comparisons_processed()),
               sharded.shard_count(), printed_pairs);
  if (mutation_rate > 0.0) {
    std::fprintf(stderr,
                 "mutations: %llu deletes, %llu corrections (%zu stale "
                 "pairs dropped)\n",
                 static_cast<unsigned long long>(mutations.deletes()),
                 static_cast<unsigned long long>(mutations.updates()),
                 matched_pairs.size() - printed_pairs);
  }
  return 0;
}
