// The two closed-loop workloads, census-stream and dbpedia-ed: one
// thread delivers an increment to PierPipeline, spends a fixed
// comparison budget on it (EmitBatch(k) -> Matcher::Verdict ->
// RecordMatch/RecordVerdict), and only then delivers the next one.
// After the last increment it calls NotifyStreamEnd and spends a tail
// budget. Fixed budgets and a fixed K make the verdict stream a pure
// function of the seed, so pc, pc_auc and the stream digest repeat
// exactly; only the times vary.

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "bench.h"
#include "datagen/generators.h"
#include "obs/metrics.h"
#include "similarity/matcher.h"
#include "similarity/similarity_kernels.h"
#include "stats.h"
#include "util/rng.h"

namespace pierbench {

namespace {

using pier::Comparison;
using pier::EntityProfile;
using pier::ProfileId;

struct ClosedLoopConfig {
  pier::Dataset (*generate)(uint64_t seed);
  pier::PierOptions options;
  std::unique_ptr<pier::Matcher> matcher;
  size_t increments = 0;
  // Comparisons spent after each increment, per profile it holds.
  double budget_per_profile = 0.0;
  // Comparisons spent after NotifyStreamEnd, per profile of the stream.
  double tail_per_profile = 0.0;
  size_t batch_k = 0;
};

// Post-run serving probe: batches of point queries on random ids of
// the final index, each batch timed as a whole. Every 16th call
// materializes the member list (ClusterOf), the rest are ClusterIdOf.
constexpr size_t kQueryBatch = 16;
constexpr size_t kQuerySamples = 20000;

// Bookkeeping share of the traced run_s (self time of the run,
// increment and tail spans) above which the layer spans no longer
// explain the run, and the tolerance for the layer self times adding
// up to the independently timed run_s.
constexpr double kMaxUnattributedShare = 0.05;
constexpr double kSelfSumTolerance = 0.01;

RepResult RunClosedLoop(const ClosedLoopConfig& config, uint64_t seed,
                        Tracer* tracer) {
  RepResult result;
  pier::obs::MetricsRegistry registry;

  // ---- set-up: input generation and pipeline construction ----
  const int64_t setup_start = NowNs();
  pier::Dataset dataset = config.generate(seed);
  const size_t n = dataset.profiles.size();
  std::vector<std::vector<EntityProfile>> increments;
  std::vector<uint32_t> increment_of(n);
  for (const pier::Increment& range :
       pier::SplitIntoIncrements(dataset, config.increments)) {
    std::vector<EntityProfile> batch;
    batch.reserve(range.size());
    for (size_t i = range.begin; i < range.end; ++i) {
      increment_of[dataset.profiles[i].id] =
          static_cast<uint32_t>(increments.size());
      batch.push_back(std::move(dataset.profiles[i]));
    }
    increments.push_back(std::move(batch));
  }
  dataset.profiles.clear();
  pier::PierOptions options = config.options;
  options.metrics = tracer != nullptr ? &registry : nullptr;
  auto pipeline = std::make_unique<pier::PierPipeline>(options);
  result.setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;

  // The replays need the profiles as generated; copy them before the
  // pipeline consumes them (traced repetitions only, outside set-up).
  std::vector<std::vector<EntityProfile>> replay_input;
  if (tracer != nullptr) replay_input = increments;

  const pier::GroundTruth& truth = dataset.truth;
  const pier::Matcher& matcher = *config.matcher;
  pier::SimilarityScratch scratch;
  std::vector<uint64_t> found_at;
  std::vector<double> found_time;
  std::vector<double> ingest_start(increments.size(), 0.0);
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  std::vector<uint64_t> executed_keys;
  std::vector<uint8_t> verdicts;
  pier::WorkStats work;
  uint64_t executed = 0;
  uint64_t total_budget = 0;
  uint64_t digest = 0;
  bool stream_ended = false;

  const double cpu_start = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const auto elapsed_s = [t0] {
    return static_cast<double>(NowNs() - t0) * 1e-9;
  };

  // Spends up to `budget` comparisons in batches of batch_k; stops
  // early when the pipeline has nothing left to emit.
  const auto spend = [&](uint64_t budget, uint32_t parent) {
    total_budget += budget;
    uint64_t left = budget;
    while (left > 0) {
      std::vector<Comparison> batch;
      {
        const SpanScope span(tracer, "core.emit", parent);
        batch = pipeline->EmitBatch(std::min<uint64_t>(config.batch_k, left),
                                    &work);
      }
      if (batch.empty()) break;
      left -= std::min<uint64_t>(left, batch.size());
      verdicts.assign(batch.size(), 0);
      {
        const SpanScope span(tracer, "similarity.verdict", parent);
        const pier::ProfileStore& store = pipeline->profiles();
        for (size_t j = 0; j < batch.size(); ++j) {
          verdicts[j] = matcher.Verdict(store.Get(batch[j].x),
                                        store.Get(batch[j].y), &scratch)
                            ? 1
                            : 0;
        }
      }
      {
        const SpanScope span(tracer, "serve.record", parent);
        for (size_t j = 0; j < batch.size(); ++j) {
          if (verdicts[j] != 0) pipeline->RecordMatch(batch[j].x, batch[j].y);
          pipeline->RecordVerdict(batch[j].x, batch[j].y, verdicts[j] != 0);
        }
      }
      // Benchmark bookkeeping: digest, PC curve, match latency.
      const double now = elapsed_s();
      for (size_t j = 0; j < batch.size(); ++j) {
        const Comparison& c = batch[j];
        const bool is_match = verdicts[j] != 0;
        digest = DigestStep(digest, c.x, c.y, is_match);
        ++executed;
        if (tracer != nullptr) executed_keys.push_back(c.Key());
        if (!is_match) continue;
        matches.emplace_back(c.x, c.y);
        if (truth.IsMatch(c.x, c.y)) {
          found_at.push_back(executed);
          found_time.push_back(now);
        }
        if (!stream_ended) {
          const double released =
              ingest_start[increment_of[std::max(c.x, c.y)]];
          result.match_latency_ms.push_back((now - released) * 1e3);
        }
      }
    }
  };

  uint32_t run_span = Tracer::kNoParent;
  uint32_t tail_span = Tracer::kNoParent;
  {
    const SpanScope run(tracer, "run", Tracer::kNoParent);
    run_span = run.id();
    for (size_t i = 0; i < increments.size(); ++i) {
      const SpanScope inc(tracer, "increment", run.id());
      const size_t size = increments[i].size();
      ingest_start[i] = elapsed_s();
      pier::WorkStats stats;
      {
        const SpanScope span(tracer, "core.ingest", inc.id());
        stats = pipeline->Ingest(std::move(increments[i]));
      }
      const double ingest_end = elapsed_s();
      result.write_ms.push_back((ingest_end - ingest_start[i]) * 1e3);
      result.ingest_call_ms.push_back(result.write_ms.back());
      result.Check(stats.profiles == size, "Ingest accepted every profile");
      work += stats;
      spend(static_cast<uint64_t>(
                std::llround(config.budget_per_profile * size)),
            inc.id());
    }
    const SpanScope tail(tracer, "stream.tail", run.id());
    tail_span = tail.id();
    pipeline->NotifyStreamEnd();
    stream_ended = true;
    spend(static_cast<uint64_t>(std::llround(config.tail_per_profile * n)),
          tail.id());
  }
  result.run_s = elapsed_s();
  const double cpu_s = ProcessCpuSeconds() - cpu_start;

  // ---- outcome ----
  result.has_digest = true;
  result.digest = digest;
  result.pc = truth.empty() ? 0.0
                            : static_cast<double>(found_at.size()) /
                                  static_cast<double>(truth.size());
  result.pc_auc = PcAuc(found_at, total_budget, truth.size());
  result.pc_half_s = HalfTime(found_time);
  result.Check(!found_at.empty(), "the run found true matches");

  // Served clusters against an offline union-find over the matches.
  const pier::serve::ClusterIndex& clusters = pipeline->clusters();
  const std::vector<uint8_t> live(n, 1);
  const size_t mismatches = ClusterMismatches(
      n, matches, live, pier::kInvalidProfileId,
      [&](uint32_t id) { return clusters.ClusterIdOf(id); });
  result.Check(mismatches == 0, "served clusters equal the offline union-find");

  // ---- serving probe on the final index ----
  pier::Rng rng(seed ^ 0x5eedc0deULL);
  uint64_t sink = 0;
  std::vector<ProfileId> ids(kQueryBatch);
  result.query_ns.reserve(kQuerySamples);
  for (size_t s = 0; s < kQuerySamples; ++s) {
    for (auto& id : ids) {
      id = static_cast<ProfileId>(rng.UniformInt(0, n - 1));
    }
    result.query_ns.push_back(BatchPerCall(kQueryBatch, NowNs, [&](size_t i) {
      sink += i + 1 == kQueryBatch ? clusters.ClusterOf(ids[i]).members.size()
                                   : clusters.ClusterIdOf(ids[i]);
    }));
  }
  result.Check(sink != 0, "cluster queries answered");

  result.detail["core.comparisons_generated"] =
      static_cast<double>(work.comparisons_generated);
  result.detail["core.index_ops"] = static_cast<double>(work.index_ops);
  result.detail["comparisons"] = static_cast<double>(executed);
  result.detail["budget"] = static_cast<double>(total_budget);
  result.detail["truth_pairs"] = static_cast<double>(truth.size());
  result.detail["host.cpu_s"] = cpu_s;

  if (tracer == nullptr) return result;

  // ---- per-layer metrics from the spans, counters and replays ----
  std::map<std::string, double>& layers = result.layers;
  const std::map<std::string, double> self = tracer->SelfSeconds(run_span);
  const double bookkeeping =
      SelfOf(self, "run") + SelfOf(self, "increment") + SelfOf(self, "stream.tail");
  double self_sum = 0.0;
  for (const auto& [name, seconds] : self) self_sum += seconds;
  result.Check(std::abs(self_sum - result.run_s) <=
                   kSelfSumTolerance * result.run_s,
               "span self times add up to the traced run_s");
  result.Check(bookkeeping <= kMaxUnattributedShare * result.run_s,
               "layer spans cover the traced run_s");

  ReplayIngestLayers(options, std::move(replay_input), {}, {}, tracer,
                     &layers);
  ReplayFilter(executed_keys, options.mutable_stream, tracer, &layers);
  const std::map<std::string, double> replay = tracer->SelfSeconds();
  AddReplayTimes(replay, SelfOf(self, "core.ingest"), &layers);

  const auto counter = [&](const char* name) {
    return static_cast<double>(registry.GetCounter(name)->Value());
  };
  layers["core.ingest_s"] = SelfOf(self, "core.ingest");
  layers["core.emit_s"] = SelfOf(self, "core.emit");
  layers["similarity.verdict_s"] = SelfOf(self, "similarity.verdict");
  layers["serve.record_s"] = SelfOf(self, "serve.record");
  layers["stream.drain_s"] = tracer->DurationSeconds(tail_span);
  layers["trace.unattributed_share"] = bookkeeping / result.run_s;
  layers["core.emitted"] = counter("pipeline.comparisons_emitted");
  layers["core.suppressed"] = counter("pipeline.comparisons_suppressed");
  layers["similarity.comparisons"] = static_cast<double>(executed);
  layers["similarity.match_yield"] =
      executed == 0 ? 0.0
                    : static_cast<double>(matches.size()) /
                          static_cast<double>(executed);
  layers["similarity.true_match_yield"] =
      executed == 0 ? 0.0
                    : static_cast<double>(found_at.size()) /
                          static_cast<double>(executed);
  layers["serve.merges"] = static_cast<double>(clusters.merges());
  layers["serve.mb"] = static_cast<double>(clusters.ApproxMemoryBytes()) / kMiB;
  layers["serve.queries"] = static_cast<double>(kQuerySamples * kQueryBatch);
  layers["stream.backpressure_waits"] = 0.0;  // no queue in a closed loop
  layers["host.cpu_s"] = cpu_s;
  layers["host.cpu_per_wall"] = cpu_s / result.run_s;
  return result;
}

pier::Dataset GenerateCensusStream(uint64_t seed) {
  pier::CensusOptions options;
  options.num_records = 200000;
  options.seed = seed;
  return pier::GenerateCensus(options);
}

pier::Dataset GenerateDbpediaEd(uint64_t seed) {
  pier::DbpediaOptions options;
  options.source0_count = 4300;
  options.source1_count = 5700;
  options.seed = seed;
  return pier::GenerateDbpedia(options);
}

}  // namespace

RepResult RunCensusStream(uint64_t seed, Tracer* tracer) {
  ClosedLoopConfig config;
  config.generate = GenerateCensusStream;
  config.options.kind = pier::DatasetKind::kDirty;
  config.options.strategy = pier::PierStrategy::kIPes;
  config.options.blocking.max_block_size = 300;
  config.matcher = std::make_unique<pier::JaccardMatcher>(0.35);
  config.increments = 100;
  config.budget_per_profile = 2.0;
  config.tail_per_profile = 1.0;
  config.batch_k = 256;
  return RunClosedLoop(config, seed, tracer);
}

RepResult RunDbpediaEd(uint64_t seed, Tracer* tracer) {
  ClosedLoopConfig config;
  config.generate = GenerateDbpediaEd;
  config.options.kind = pier::DatasetKind::kCleanClean;
  config.options.strategy = pier::PierStrategy::kIPes;
  config.options.blocking.max_block_size = 300;
  config.matcher = std::make_unique<pier::EditDistanceMatcher>(0.75, 512);
  config.increments = 50;
  config.budget_per_profile = 10.0;
  config.tail_per_profile = 2.0;
  config.batch_k = 256;
  return RunClosedLoop(config, seed, tracer);
}

}  // namespace pierbench
