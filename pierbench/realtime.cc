// The realtime workload, realtime-mutable: census increments go to
// RealtimePipeline (mutable stream, I-PBS, one shard, one execution
// thread, adaptive K). The producer releases an increment, waits until
// the pipeline has drained it (Drain), then deletes a fixed share of
// the released profiles and corrects half of the previous tick's
// deletions (Update on the tombstoned id), and drains again. Each
// release therefore finds an idle pipeline: the loop never saturates,
// and match latency is processing time, not queueing. Right after each
// Ingest and Update, while the shard worker and the combiner work on
// it, the producer itself issues a fixed burst of ClusterIdOf /
// ClusterOf calls on random live ids. Threads: this one (producer and
// query client), the shard worker and the combiner.
//
// An open loop (releases on a fixed schedule) was tried first. On a
// shared 4-vCPU host, its match latency moved by 40-50% between runs
// with the host's load (every release woke an idle worker); the drained
// loop keeps the same layers loaded and moved by about 20%. The
// queries run on the producer, not on a thread of their own: such a
// thread preempted the shard worker, and run_s was about 15% longer
// with it than without it on an idle host.

#include <algorithm>
#include <utility>

#include "bench.h"
#include "datagen/generators.h"
#include "obs/metrics.h"
#include "serve/cluster_index.h"
#include "similarity/matcher.h"
#include "similarity/similarity_kernels.h"
#include "stats.h"
#include "stream/realtime_pipeline.h"
#include "text/tokenizer.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace pierbench {

namespace {

using pier::EntityProfile;
using pier::ProfileId;

constexpr size_t kRecords = 30000;
constexpr size_t kMaxBlockSize = 40;
// Each tick wakes the idle worker twice (Ingest, Update). 50 ticks
// rather than 100 halve those hand-offs, whose cost depends on how
// busy the host is.
constexpr size_t kTicks = 50;
// Deleted per tick, as a share of the increment size; half of them are
// corrected (re-inserted) one tick later.
constexpr double kDeleteShare = 0.05;

constexpr size_t kQueryBatch = 16;
// Query batches per burst; one burst follows every Ingest and Update.
// The first kQueryWarmup batches of a burst are not recorded: they run
// on caches that the Ingest or Update call, and other tenants of the
// host while the producer waited, have churned, and their latency
// follows the host rather than the serving index.
constexpr size_t kQueryBurst = 256;
constexpr size_t kQueryWarmup = 64;

// Forwards to the configured matcher and records every pair the
// executor asks about, for the traced run's filter replay. Called from
// the shard worker only (one execution thread); read after the
// pipeline's threads have been joined.
class RecordingMatcher : public pier::Matcher {
 public:
  explicit RecordingMatcher(const pier::Matcher& inner)
      : Matcher(inner.threshold()), inner_(inner) {}

  double Similarity(const EntityProfile& a,
                    const EntityProfile& b) const override {
    return inner_.Similarity(a, b);
  }
  double SimilarityKernel(const EntityProfile& a, const EntityProfile& b,
                          pier::SimilarityScratch* scratch) const override {
    return inner_.SimilarityKernel(a, b, scratch);
  }
  bool Verdict(const EntityProfile& a, const EntityProfile& b,
               pier::SimilarityScratch* scratch) const override {
    keys_.push_back(pier::PairKey(a.id, b.id));
    return inner_.Verdict(a, b, scratch);
  }
  uint64_t CostUnits(const EntityProfile& a,
                     const EntityProfile& b) const override {
    return inner_.CostUnits(a, b);
  }
  const char* name() const override { return inner_.name(); }

  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  const pier::Matcher& inner_;
  mutable std::vector<uint64_t> keys_;
};

struct MatchEvent {
  ProfileId a;
  ProfileId b;
  int64_t t_ns;
  uint64_t comparisons;
};

// A correction: the record with its last attribute dropped (same
// entity, so the ground truth is unchanged).
EntityProfile Corrected(const EntityProfile& original) {
  std::vector<pier::Attribute> attributes;
  original.ForEachAttribute([&](std::string_view name, std::string_view value) {
    attributes.push_back(pier::Attribute{std::string(name), std::string(value)});
  });
  if (attributes.size() > 1) attributes.pop_back();
  return EntityProfile(original.id, original.source, std::move(attributes));
}

}  // namespace

RepResult RunRealtimeMutable(uint64_t seed, Tracer* tracer) {
  RepResult result;
  pier::obs::MetricsRegistry registry;
  const pier::JaccardMatcher base_matcher(0.35);

  // ---- set-up: input generation, mutation plan, pipeline ----
  const int64_t setup_start = NowNs();
  pier::CensusOptions census;
  census.num_records = kRecords;
  census.seed = seed;
  pier::Dataset dataset = pier::GenerateCensus(census);
  const size_t n = dataset.profiles.size();
  const std::vector<pier::Increment> ranges =
      pier::SplitIntoIncrements(dataset, kTicks);
  std::vector<std::vector<EntityProfile>> increments;
  std::vector<uint32_t> tick_of(n);
  for (const pier::Increment& range : ranges) {
    for (size_t i = range.begin; i < range.end; ++i) {
      tick_of[dataset.profiles[i].id] = static_cast<uint32_t>(increments.size());
    }
    increments.emplace_back(
        dataset.profiles.begin() + static_cast<ptrdiff_t>(range.begin),
        dataset.profiles.begin() + static_cast<ptrdiff_t>(range.end));
  }
  // Deterministic mutation plan: at tick t, delete random released live
  // ids, and correct the first half of tick t-1's deletions.
  std::vector<std::vector<ProfileId>> deletes(kTicks);
  std::vector<std::vector<EntityProfile>> corrections(kTicks);
  {
    pier::Rng rng(seed ^ 0xde1e7eULL);
    std::vector<ProfileId> pool;
    for (size_t t = 0; t < kTicks; ++t) {
      if (t > 0) {
        const auto& previous = deletes[t - 1];
        for (size_t i = 0; i < previous.size() / 2; ++i) {
          const ProfileId id = previous[i];
          corrections[t].push_back(Corrected(dataset.profiles[id]));
        }
      }
      // Profiles become deletable once released; each id is deleted at
      // most once, so it has at most one corrected version.
      for (size_t i = ranges[t].begin; i < ranges[t].end; ++i) {
        pool.push_back(dataset.profiles[i].id);
      }
      const size_t count = static_cast<size_t>(
          kDeleteShare * static_cast<double>(ranges[t].size()) + 0.5);
      for (size_t i = 0; i < count; ++i) {
        const size_t pick = rng.UniformInt(0, pool.size() - 1);
        deletes[t].push_back(pool[pick]);
        pool[pick] = pool.back();
        pool.pop_back();
      }
    }
  }
  pier::PierOptions options;
  options.kind = pier::DatasetKind::kDirty;
  options.strategy = pier::PierStrategy::kIPbs;
  options.blocking.max_block_size = kMaxBlockSize;
  options.mutable_stream = true;
  options.execution_threads = 1;
  options.metrics = tracer != nullptr ? &registry : nullptr;
  RecordingMatcher recording(base_matcher);
  const pier::Matcher* matcher =
      tracer != nullptr ? static_cast<const pier::Matcher*>(&recording)
                        : &base_matcher;
  std::vector<MatchEvent> events;  // combiner thread until Stop()
  const pier::RealtimePipeline* pipeline_view = nullptr;
  pier::RealtimePipeline pipeline(
      options, matcher, [&](ProfileId a, ProfileId b) {
        events.push_back(
            MatchEvent{a, b, NowNs(), pipeline_view->comparisons_processed()});
      });
  pipeline_view = &pipeline;
  result.setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;

  std::vector<std::vector<EntityProfile>> replay_input;
  std::vector<std::vector<EntityProfile>> replay_corrections;
  if (tracer != nullptr) {
    replay_input = increments;
    replay_corrections = corrections;
  }

  // ---- timed phase ----
  std::vector<uint8_t> deleted(n, 0);
  size_t released = 0;
  pier::Rng query_rng(seed ^ 0x9e3779b9ULL);
  uint64_t query_calls = 0;
  uint64_t query_sink = 0;
  const auto query_burst = [&](uint32_t parent) {
    const SpanScope span(tracer, "serve.query", parent);
    ProfileId ids[kQueryBatch];
    for (size_t b = 0; b < kQueryBurst; ++b) {
      for (ProfileId& id : ids) {
        do {
          id = static_cast<ProfileId>(query_rng.UniformInt(0, released - 1));
        } while (deleted[id] != 0);
      }
      const double ns = BatchPerCall(kQueryBatch, NowNs, [&](size_t i) {
        query_sink += i + 1 == kQueryBatch
                          ? pipeline.ClusterOf(ids[i]).members.size()
                          : pipeline.ClusterIdOf(ids[i]);
      });
      if (b >= kQueryWarmup) result.query_ns.push_back(ns);
    }
    query_calls += kQueryBurst * kQueryBatch;
  };

  std::vector<double> delete_ms;
  std::vector<double> update_ms;
  std::vector<int64_t> release_ns(kTicks, 0);
  std::vector<int64_t> delete_end_ns(n, 0);  // 0: never deleted
  std::vector<int64_t> update_start_ns(n, 0);
  const double cpu_start = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const auto timed_call = [&](const char* span_name, uint32_t parent,
                              auto&& call, std::vector<double>* out_ms) {
    const SpanScope span(tracer, span_name, parent);
    const int64_t begin = NowNs();
    const bool ok = call();
    const int64_t end = NowNs();
    out_ms->push_back(static_cast<double>(end - begin) * 1e-6);
    return std::pair<bool, int64_t>(ok, end);
  };
  const auto drain = [&](uint32_t parent) {
    const SpanScope span(tracer, "stream.drain", parent);
    pipeline.Drain();
  };
  uint32_t run_span = Tracer::kNoParent;
  int64_t stream_end_ns = 0;
  {
    const SpanScope run(tracer, "run", Tracer::kNoParent);
    run_span = run.id();
    for (size_t t = 0; t < kTicks; ++t) {
      const SpanScope tick(tracer, "tick", run.id());
      release_ns[t] = NowNs();
      const auto ingest = timed_call(
          "stream.ingest", tick.id(),
          [&] { return pipeline.Ingest(std::move(increments[t])); },
          &result.ingest_call_ms);
      result.Check(ingest.first, "Ingest accepted the increment");
      released = ranges[t].end;
      query_burst(tick.id());
      drain(tick.id());
      if (deletes[t].empty() && corrections[t].empty()) continue;
      // One write sample per tick: its Delete and Update calls together
      // (two populations of different cost would put a per-call median
      // on the boundary between them).
      const int64_t mutations_begin = NowNs();
      if (!deletes[t].empty()) {
        for (const ProfileId id : deletes[t]) deleted[id] = 1;
        const auto del = timed_call(
            "stream.delete", tick.id(),
            [&] { return pipeline.Delete(deletes[t]); }, &delete_ms);
        result.Check(del.first, "Delete applied");
        for (const ProfileId id : deletes[t]) delete_end_ns[id] = del.second;
      }
      if (!corrections[t].empty()) {
        const int64_t begin = NowNs();
        std::vector<EntityProfile> batch = corrections[t];
        const auto upd = timed_call(
            "stream.update", tick.id(),
            [&] { return pipeline.Update(std::move(batch)); }, &update_ms);
        result.Check(upd.first, "Update applied");
        for (const auto& p : corrections[t]) {
          update_start_ns[p.id] = begin;
          deleted[p.id] = 0;
        }
      }
      result.write_ms.push_back(static_cast<double>(NowNs() - mutations_begin) *
                                1e-6);
      if (!corrections[t].empty()) query_burst(tick.id());
      drain(tick.id());
    }
    stream_end_ns = NowNs();
    const SpanScope tail(tracer, "stream.drain", run.id());
    pipeline.NotifyStreamEnd();
    pipeline.Drain();
  }
  result.run_s = static_cast<double>(NowNs() - t0) * 1e-9;
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  const uint64_t comparisons = pipeline.comparisons_processed();
  pipeline.Stop();  // joins the worker and combiner: `events` is final

  // ---- outcome ----
  std::vector<uint8_t> live(n, 1);
  for (ProfileId id = 0; id < n; ++id) {
    live[id] = deleted[id] == 0 ? 1 : 0;
  }
  // The serving index drops a match edge when either endpoint is
  // deleted after it was delivered; corrections return as singletons.
  const auto survives = [&](const MatchEvent& e) {
    return e.t_ns > delete_end_ns[e.a] && e.t_ns > delete_end_ns[e.b];
  };
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  std::vector<uint64_t> found_at;
  std::vector<double> found_time;
  uint64_t true_events = 0;
  for (const MatchEvent& e : events) {
    const bool is_true = dataset.truth.IsMatch(e.a, e.b);
    true_events += is_true ? 1 : 0;
    if (!survives(e)) continue;
    edges.emplace_back(e.a, e.b);
    if (is_true) {
      found_at.push_back(e.comparisons);
      found_time.push_back(static_cast<double>(e.t_ns - t0) * 1e-9);
    }
  }
  uint64_t truth_live = 0;
  for (const uint64_t key : dataset.truth.pairs()) {
    if (live[key >> 32] != 0 && live[key & 0xffffffffu] != 0) ++truth_live;
  }
  result.pc = truth_live == 0 ? 0.0
                              : static_cast<double>(found_at.size()) /
                                    static_cast<double>(truth_live);
  result.pc_auc = PcAuc(found_at, comparisons, truth_live);
  result.pc_half_s = HalfTime(found_time);
  result.Check(!found_at.empty(), "the run found true matches");

  const size_t mismatches = ClusterMismatches(
      n, edges, live, pier::kInvalidProfileId,
      [&](uint32_t id) { return pipeline.ClusterIdOf(id); });
  result.Check(mismatches == 0, "served clusters equal the offline union-find");

  // Re-check every delivered match on the benchmark's own copy of the
  // profile versions that were live when it was delivered.
  {
    pier::TokenDictionary dictionary;
    const pier::Tokenizer tokenizer(options.tokenizer);
    for (auto& p : dataset.profiles) tokenizer.TokenizeProfile(p, dictionary);
    std::vector<EntityProfile> corrected(n);
    for (auto& tick : corrections) {
      for (auto& p : tick) {
        tokenizer.TokenizeProfile(p, dictionary);
        corrected[p.id] = std::move(p);
      }
    }
    const auto version = [&](ProfileId id, int64_t t) -> const EntityProfile& {
      return update_start_ns[id] != 0 && t > update_start_ns[id]
                 ? corrected[id]
                 : dataset.profiles[id];
    };
    pier::SimilarityScratch scratch;
    size_t wrong = 0;
    for (const MatchEvent& e : events) {
      if (!base_matcher.Verdict(version(e.a, e.t_ns), version(e.b, e.t_ns),
                                &scratch)) {
        ++wrong;
      }
    }
    result.Check(wrong == 0, "every delivered match re-checks as a match");
  }

  // Match latency: delivery time minus the start of the Ingest (or
  // Update) call that released the later profile of the pair.
  for (const MatchEvent& e : events) {
    if (e.t_ns >= stream_end_ns) continue;
    const auto release = [&](ProfileId id) {
      const bool corrected_version =
          update_start_ns[id] != 0 && e.t_ns > update_start_ns[id];
      return corrected_version ? update_start_ns[id] : release_ns[tick_of[id]];
    };
    const int64_t later = std::max(release(e.a), release(e.b));
    result.match_latency_ms.push_back(static_cast<double>(e.t_ns - later) *
                                      1e-6);
  }
  result.Check(query_calls > 0 && query_sink != 0, "cluster queries answered");

  result.detail["stream.delete_ms_median"] = Median(delete_ms);
  result.detail["stream.update_ms_median"] = Median(update_ms);
  result.detail["comparisons"] = static_cast<double>(comparisons);
  result.detail["matches_delivered"] = static_cast<double>(events.size());
  result.detail["truth_pairs_live"] = static_cast<double>(truth_live);
  result.detail["host.cpu_s"] = cpu_s;

  if (tracer == nullptr) return result;

  // ---- per-layer metrics ----
  std::map<std::string, double>& layers = result.layers;
  const std::map<std::string, double> self = tracer->SelfSeconds(run_span);
  const auto sum_s = [&](const char* name) {
    return static_cast<double>(registry.GetHistogram(name)->Sum()) * 1e-9;
  };
  const auto counter = [&](const char* name) {
    return static_cast<double>(registry.GetCounter(name)->Value());
  };
  ReplayIngestLayers(options, std::move(replay_input), deletes,
                     std::move(replay_corrections), tracer, &layers);
  ReplayFilter(recording.keys(), /*counting=*/true, tracer, &layers);
  {
    // The combiner's cluster-index writes happen on its own thread;
    // replay the delivered matches into a fresh index to time them.
    pier::serve::ClusterIndex index;
    index.EnableRetraction();
    index.TrackUpTo(n);
    const SpanScope span(tracer, "serve.record", Tracer::kNoParent);
    for (const MatchEvent& e : events) index.AddMatch(e.a, e.b);
  }
  // Router ingest on this thread plus the shard engine's ingest.
  const double ingest_s =
      SelfOf(self, "stream.ingest") + sum_s("pipeline.ingest_ns");
  AddReplayTimes(tracer->SelfSeconds(), ingest_s, &layers);
  layers["core.ingest_s"] = ingest_s;
  layers["core.emit_s"] = sum_s("pipeline.emit_ns");
  layers["core.emitted"] = counter("pipeline.comparisons_emitted");
  layers["core.suppressed"] = counter("pipeline.comparisons_suppressed");
  layers["similarity.verdict_s"] = sum_s("realtime.match_ns");
  layers["similarity.comparisons"] = static_cast<double>(comparisons);
  layers["similarity.match_yield"] =
      comparisons == 0 ? 0.0
                       : static_cast<double>(events.size()) /
                             static_cast<double>(comparisons);
  layers["similarity.true_match_yield"] =
      comparisons == 0 ? 0.0
                       : static_cast<double>(true_events) /
                             static_cast<double>(comparisons);
  layers["serve.record_s"] = SelfOf(tracer->SelfSeconds(), "serve.record");
  layers["serve.merges"] = static_cast<double>(pipeline.clusters().merges());
  layers["serve.mb"] =
      static_cast<double>(pipeline.clusters().ApproxMemoryBytes()) / kMiB;
  layers["serve.queries"] = static_cast<double>(query_calls);
  layers["stream.backpressure_waits"] = counter("shard.backpressure_waits");
  // Hand-offs between the producer and the shard worker.
  result.detail["stream.verdict_batches"] = counter("realtime.batches");
  result.detail["stream.idle_transitions"] =
      counter("realtime.idle_transitions");
  // Time this thread waited for the pipeline to drain, after every
  // increment and mutation and at the end of the stream.
  layers["stream.drain_s"] = SelfOf(self, "stream.drain");
  layers["trace.unattributed_share"] =
      (SelfOf(self, "run") + SelfOf(self, "tick")) / result.run_s;
  layers["host.cpu_s"] = cpu_s;
  layers["host.cpu_per_wall"] = cpu_s / result.run_s;
  return result;
}

}  // namespace pierbench
