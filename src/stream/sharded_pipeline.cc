#include "stream/sharded_pipeline.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "persist/checkpoint_manager.h"
#include "persist/snapshot.h"
#include "util/check.h"
#include "util/hashing.h"
#include "util/serial.h"

namespace pier {

namespace {

obs::Histogram* LatencyHistogram(obs::MetricsRegistry* metrics) {
  return metrics == nullptr
             ? nullptr
             : metrics->GetHistogram("realtime.ingest_to_first_verdict_ns");
}

obs::Gauge* PendingGauge(obs::MetricsRegistry* metrics) {
  return metrics == nullptr ? nullptr
                            : metrics->GetGauge("realtime.pending_ingests");
}

// Drain-time close-outs measure time-to-quiescence, not verdict
// freshness; they get their own histogram so the freshness percentiles
// stay honest (see stream/ingest_latency.h).
obs::Histogram* DrainHistogram(obs::MetricsRegistry* metrics) {
  return metrics == nullptr
             ? nullptr
             : metrics->GetHistogram("realtime.ingest_to_quiescence_ns");
}

}  // namespace

ShardedPipeline::ShardedPipeline(ShardedOptions options, const Matcher* matcher,
                                 MatchCallback on_match)
    : options_(std::move(options)),
      matcher_(matcher),
      on_match_(std::move(on_match)),
      tokenizer_(options_.pipeline.tokenizer),
      shard_token_counts_(options_.shard_count, 0),
      delivered_(options_.pipeline.exact_executed_filter,
                 options_.pipeline.mutable_stream),
      verdict_queue_(options_.verdict_queue_capacity),
      metrics_(options_.pipeline.metrics),
      latency_tracker_(LatencyHistogram(options_.pipeline.metrics),
                       PendingGauge(options_.pipeline.metrics),
                       DrainHistogram(options_.pipeline.metrics)) {
  PIER_CHECK(matcher_ != nullptr);
  PIER_CHECK(options_.shard_count >= 1);
  if (options_.pipeline.mutable_stream) clusters_.EnableRetraction();
  if (metrics_ != nullptr) {
    obs::MetricsRegistry& r = *metrics_;
    ingests_metric_ = r.GetCounter("realtime.ingests");
    deletes_metric_ = r.GetCounter("realtime.deletes");
    updates_metric_ = r.GetCounter("realtime.updates");
    batches_metric_ = r.GetCounter("realtime.batches");
    idle_transitions_metric_ = r.GetCounter("realtime.idle_transitions");
    worker_idle_metric_ = r.GetGauge("realtime.worker_idle");
    match_ns_metric_ = r.GetHistogram("realtime.match_ns");
    queue_depth_metric_ = r.GetGauge("realtime.queue_depth");
    microbatches_metric_ = r.GetCounter("shard.microbatches");
    backpressure_waits_metric_ = r.GetCounter("shard.backpressure_waits");
    backpressure_wait_ns_metric_ = r.GetHistogram("shard.backpressure_wait_ns");
    verdict_queue_depth_metric_ = r.GetGauge("shard.verdict_queue_depth");
    verdict_batches_metric_ = r.GetCounter("shard.verdict_batches");
    duplicates_metric_ = r.GetCounter("shard.duplicates_suppressed");
    clusters_.InstrumentWith(metrics_);
  }
  shards_.reserve(options_.shard_count);
  for (size_t s = 0; s < options_.shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    PierOptions shard_options = options_.pipeline;
    shard_options.track_clusters = false;
    shard_options.token_shard_count =
        static_cast<uint32_t>(options_.shard_count);
    shard_options.token_shard_index = static_cast<uint32_t>(s);
    shard->pipeline = std::make_unique<PierPipeline>(shard_options);
    shard->executor = std::make_unique<ParallelMatchExecutor>(
        matcher_, options_.pipeline.execution_threads,
        options_.pipeline.metrics);
    shard->queue = std::make_unique<ShardQueue<Microbatch>>(
        options_.queue_capacity);
    if (metrics_ != nullptr) {
      const std::string base = "shard." + std::to_string(s);
      shard->queue_depth_metric = metrics_->GetGauge(base + ".queue_depth");
      shard->busy_metric = metrics_->GetGauge(base + ".busy");
    }
    shards_.push_back(std::move(shard));
  }
  obs::GaugeSet(worker_idle_metric_, 1.0);
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->worker = std::thread([this, s] { ShardLoop(s); });
  }
  combiner_ = std::thread([this] { CombinerLoop(); });
}

ShardedPipeline::~ShardedPipeline() { Stop(); }

void ShardedPipeline::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  stop_.store(true, std::memory_order_release);
  {
    // Taking state_mutex_ here pairs with the Drain/Quiesce waiters'
    // predicate check, so the stop_ store cannot slip between a
    // waiter's predicate evaluation and its sleep.
    std::lock_guard<std::mutex> lock(state_mutex_);
  }
  drained_cv_.notify_all();
  // Close the verdict queue before joining the workers: a worker
  // blocked pushing a verdict batch must observe the close and bail
  // out, while the combiner keeps draining already-queued batches.
  for (auto& shard : shards_) shard->queue->Close();
  verdict_queue_.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  if (combiner_.joinable()) combiner_.join();
}

void ShardedPipeline::RouteNewTokens() {
  for (auto id = static_cast<TokenId>(token_routes_.size());
       id < dictionary_.size(); ++id) {
    const auto shard = static_cast<uint32_t>(
        Mix64(HashString(dictionary_.Spelling(id))) % options_.shard_count);
    token_routes_.push_back({shard, shard_token_counts_[shard]++});
  }
}

void ShardedPipeline::AppendShardSlices(
    const EntityProfile& profile,
    std::vector<std::vector<EntityProfile>>& slices) {
  RouteNewTokens();
  std::vector<std::vector<TokenId>> local(options_.shard_count);
  // profile.tokens() is sorted by global id, and local ids keep
  // global-id order within a shard, so every slice stays sorted.
  for (const TokenId token : profile.tokens()) {
    const TokenRoute route = token_routes_[token];
    local[route.shard].push_back(route.local);
  }
  for (size_t s = 0; s < slices.size(); ++s) {
    EntityProfile slice(profile.id, profile.source, {});
    slice.set_tokens(std::move(local[s]));
    slices[s].push_back(std::move(slice));
  }
}

bool ShardedPipeline::Ingest(std::vector<EntityProfile> profiles) {
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  if (stop_.load(std::memory_order_acquire)) {
    std::fprintf(stderr,
                 "pier: Ingest rejected: the pipeline was stopped (Stop() or "
                 "destruction); construct a fresh pipeline to ingest again\n");
    return false;
  }
  if (poisoned_) {
    std::fprintf(stderr,
                 "pier: Ingest rejected: a failed RestoreFromSnapshot left "
                 "this pipeline partially restored; construct a fresh "
                 "pipeline and retry the restore\n");
    return false;
  }
  const double arrival_s = lifetime_.ElapsedSeconds();
  std::vector<std::vector<EntityProfile>> slices(options_.shard_count);
  for (auto& profile : profiles) {
    // Multi-producer ingest cannot pre-assign dense ids; the router
    // assigns arrival order under its mutex.
    if (profile.id == kInvalidProfileId) {
      profile.id = static_cast<ProfileId>(profiles_.size());
    }
    tokenizer_.TokenizeProfile(profile, dictionary_);
    AppendShardSlices(profile, slices);
    profiles_.Add(std::move(profile));
  }
  clusters_.TrackUpTo(profiles_.size());
  std::vector<Microbatch> per_shard(options_.shard_count);
  for (size_t s = 0; s < per_shard.size(); ++s) {
    per_shard[s].profiles = std::move(slices[s]);
    per_shard[s].arrival_s = arrival_s;
  }
  // The arrival must be registered before the queues see the
  // microbatches: a fast worker can otherwise deliver this
  // increment's verdicts before the registration, and the ingest
  // would miss its first-verdict closeout.
  latency_tracker_.OnIngest();
  // Route before any success bookkeeping: a Stop() racing this call
  // closes the queues, and a Push blocked on backpressure then drops
  // its microbatch -- the increment (or part of it) never reaches the
  // shards, so reporting success would silently lose it.
  if (!Route(std::move(per_shard))) {
    latency_tracker_.OnIngestAbandoned();
    std::fprintf(stderr,
                 "pier: Ingest failed: the pipeline stopped while the "
                 "increment was being routed; the increment was dropped\n");
    return false;
  }
  ++ingest_count_;
  obs::CounterAdd(ingests_metric_);
  if (checkpointer_ != nullptr && checkpointer_->Due(ingest_count_)) {
    CheckpointLocked();
  }
  return true;
}

void ShardedPipeline::NotifyStreamEnd() {
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  if (stop_.load(std::memory_order_acquire) || poisoned_) return;
  std::vector<Microbatch> per_shard(options_.shard_count);
  for (auto& microbatch : per_shard) microbatch.stream_end = true;
  Route(std::move(per_shard));
}

bool ShardedPipeline::BeginMutationLocked(const char* verb) {
  PIER_CHECK(options_.pipeline.mutable_stream);
  if (stop_.load(std::memory_order_acquire)) {
    std::fprintf(stderr, "pier: %s rejected: the pipeline was stopped\n",
                 verb);
    return false;
  }
  if (poisoned_) {
    std::fprintf(stderr,
                 "pier: %s rejected: a failed RestoreFromSnapshot left this "
                 "pipeline partially restored\n",
                 verb);
    return false;
  }
  // Quiesce: with ingest_mutex_ held no new work can arrive; once every
  // routed microbatch is ingested and every verdict delivered, the
  // shard workers are parked in Pop and the combiner in its queue --
  // the router may then touch shard engines and the delivered filter
  // directly, exactly like the checkpoint path.
  QuiesceLocked();
  return !stop_.load(std::memory_order_acquire);
}

void ShardedPipeline::RetractLocked(ProfileId id) {
  // The cross-shard delivered filter: withdraw every delivered pair
  // with this endpoint so a corrected profile's verdicts re-deliver.
  delivered_.Retract(id);
  // The serving index: the id reports absence, survivors re-resolve.
  clusters_.RemoveProfile(id);
}

bool ShardedPipeline::Delete(const std::vector<ProfileId>& ids) {
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  if (!BeginMutationLocked("Delete")) return false;
  std::vector<ProfileId> deleted;
  for (const ProfileId id : ids) {
    PIER_CHECK(id < profiles_.size());
    if (!profiles_.IsLive(id)) continue;  // idempotent
    RetractLocked(id);
    profiles_.Remove(id);
    deleted.push_back(id);
  }
  // Every shard engine holds the profile (with its token slice), so
  // the deletes fan out to all of them, one call per shard; a shard
  // whose slice of a profile was empty still tombstones its store slot
  // and keeps ids aligned.
  for (auto& shard : shards_) shard->pipeline->Delete(deleted);
  ++ingest_count_;
  obs::CounterAdd(deletes_metric_, deleted.size());
  if (checkpointer_ != nullptr && checkpointer_->Due(ingest_count_)) {
    CheckpointLocked();
  }
  return true;
}

bool ShardedPipeline::Update(std::vector<EntityProfile> profiles) {
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  if (!BeginMutationLocked("Update")) return false;
  const size_t shard_count = options_.shard_count;
  const double arrival_s = lifetime_.ElapsedSeconds();
  std::vector<std::vector<EntityProfile>> slices(shard_count);
  for (auto& profile : profiles) {
    const ProfileId id = profile.id;
    PIER_CHECK(id < profiles_.size());
    if (profiles_.IsLive(id)) RetractLocked(id);
    // Re-ingest the corrected content exactly like Ingest routes a
    // fresh arrival: tokenize once globally, split tokens by owner.
    tokenizer_.TokenizeProfile(profile, dictionary_);
    AppendShardSlices(profile, slices);
    profiles_.Replace(std::move(profile));
    clusters_.ReviveAsSingleton(id);
  }
  const uint64_t updated = profiles.size();
  // Applied synchronously on the quiesced engines (the workers are
  // parked), one call per shard: each shard retracts its slice of a
  // live profile before re-adding it. The post-update kick below wakes
  // them to emit the rescheduled comparisons.
  for (size_t s = 0; s < shard_count; ++s) {
    if (!slices[s].empty()) {
      shards_[s]->pipeline->UpdateTokenized(std::move(slices[s]));
    }
  }
  std::vector<Microbatch> kick(shard_count);
  for (auto& microbatch : kick) microbatch.arrival_s = arrival_s;
  latency_tracker_.OnIngest();  // before the push; see Ingest()
  if (!Route(std::move(kick))) {
    latency_tracker_.OnIngestAbandoned();
    return false;
  }
  ++ingest_count_;
  obs::CounterAdd(updates_metric_, updated);
  if (checkpointer_ != nullptr && checkpointer_->Due(ingest_count_)) {
    CheckpointLocked();
  }
  return true;
}

bool ShardedPipeline::Route(std::vector<Microbatch> per_shard) {
  bool complete = true;
  for (size_t s = 0; s < per_shard.size(); ++s) {
    Shard& shard = *shards_[s];
    queued_microbatches_.fetch_add(1, std::memory_order_release);
    uint64_t wait_ns = 0;
    if (!shard.queue->Push(std::move(per_shard[s]), &wait_ns)) {
      // Closed: the pipeline is stopping and the worker will never
      // pop. The microbatch is dropped -- keep routing the remaining
      // shards' rejections cheap (their queues are closed too) but
      // report the loss to the caller.
      queued_microbatches_.fetch_sub(1, std::memory_order_release);
      complete = false;
      continue;
    }
    if (wait_ns > 0) {
      obs::CounterAdd(backpressure_waits_metric_);
      obs::HistogramRecord(backpressure_wait_ns_metric_, wait_ns);
    }
    obs::GaugeSet(shard.queue_depth_metric,
                  static_cast<double>(shard.queue->size()));
  }
  obs::CounterAdd(microbatches_metric_, per_shard.size());
  obs::GaugeSet(queue_depth_metric_,
                static_cast<double>(
                    queued_microbatches_.load(std::memory_order_relaxed)));
  obs::GaugeSet(worker_idle_metric_, 0.0);
  return complete;
}

void ShardedPipeline::OnMicrobatchPopped(Shard& shard) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    shard.idle = false;
    queued_microbatches_.fetch_sub(1, std::memory_order_release);
  }
  obs::GaugeSet(shard.busy_metric, 1.0);
  obs::GaugeSet(worker_idle_metric_, 0.0);
  obs::GaugeSet(shard.queue_depth_metric,
                static_cast<double>(shard.queue->size()));
  obs::GaugeSet(queue_depth_metric_,
                static_cast<double>(
                    queued_microbatches_.load(std::memory_order_relaxed)));
}

void ShardedPipeline::MarkShardIdle(Shard& shard) {
  bool all_idle = true;
  bool transitioned = false;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    transitioned = !shard.idle;
    shard.idle = true;
    for (const auto& s : shards_) all_idle = all_idle && s->idle;
  }
  if (transitioned) obs::CounterAdd(idle_transitions_metric_);
  obs::GaugeSet(shard.busy_metric, 0.0);
  if (all_idle) obs::GaugeSet(worker_idle_metric_, 1.0);
  drained_cv_.notify_all();
}

void ShardedPipeline::IngestMicrobatch(Shard& shard, Microbatch& microbatch) {
  if (microbatch.stream_end) {
    shard.pipeline->NotifyStreamEnd();
    return;
  }
  shard.pipeline->ReportArrival(microbatch.arrival_s);
  if (!microbatch.profiles.empty()) {
    shard.pipeline->IngestTokenized(std::move(microbatch.profiles));
  }
}

void ShardedPipeline::ShardLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  PierPipeline& pipeline = *shard.pipeline;
  // Matching reads the router's global store: shard profiles carry
  // only the shard's token slice, while verdicts must be computed on
  // the full profiles. The chunked store keeps addresses stable under
  // concurrent router Adds, and every emitted pair was fully published
  // before its microbatch was queued.
  const ParallelMatchExecutor::ProfileLookup lookup =
      [this](ProfileId id) -> const EntityProfile& {
    return profiles_.Get(id);
  };
  Microbatch microbatch;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    if (shard.queue->TryPop(&microbatch)) {
      OnMicrobatchPopped(shard);
      IngestMicrobatch(shard, microbatch);
      continue;
    }
    std::vector<Comparison> batch = pipeline.EmitBatch();
    if (!batch.empty()) {
      Stopwatch sw;
      const std::vector<MatchVerdict> verdicts =
          shard.executor->Execute(batch, lookup);
      const double seconds = sw.ElapsedSeconds();
      // The shard that scheduled the pairs folds their verdicts into
      // its own prioritizer (FB-PCS block posteriors) and findK(); it
      // tracks no clusters (the combiner owns the serving index).
      // Scheduling order may shift, but the drained comparison *set*
      // -- hence cluster equivalence -- is unchanged.
      pipeline.RecordVerdicts(batch, verdicts, seconds);
      obs::CounterAdd(batches_metric_);
      if (match_ns_metric_ != nullptr && seconds > 0.0) {
        match_ns_metric_->Record(static_cast<uint64_t>(seconds * 1e9));
      }
      VerdictBatch out;
      out.shard = shard_index;
      out.comparisons = std::move(batch);
      out.is_match.resize(verdicts.size());
      for (size_t i = 0; i < verdicts.size(); ++i) {
        out.is_match[i] = verdicts[i].is_match ? 1 : 0;
      }
      verdicts_pushed_.fetch_add(1, std::memory_order_release);
      if (!verdict_queue_.Push(std::move(out))) return;  // stopping
      obs::GaugeSet(verdict_queue_depth_metric_,
                    static_cast<double>(verdict_queue_.size()));
      continue;
    }
    // Fully drained for now: publish idle, then block for more input.
    MarkShardIdle(shard);
    if (!shard.queue->Pop(&microbatch)) return;  // closed and empty
    OnMicrobatchPopped(shard);
    IngestMicrobatch(shard, microbatch);
  }
}

void ShardedPipeline::CombinerLoop() {
  // With one shard there is nothing to dedup: the shard's own
  // executed-comparison filter already guarantees exactly-once
  // delivery, and skipping the global filter keeps the N = 1 verdict
  // stream bit-identical to the classic RealtimePipeline (no second
  // Bloom filter that could drop a pair).
  const bool dedup = options_.shard_count > 1;
  std::vector<std::pair<ProfileId, ProfileId>> matched;
  VerdictBatch batch;
  while (verdict_queue_.Pop(&batch)) {
    obs::GaugeSet(verdict_queue_depth_metric_,
                  static_cast<double>(verdict_queue_.size()));
    obs::CounterAdd(verdict_batches_metric_);
    matched.clear();
    uint64_t delivered = 0;
    uint64_t duplicates = 0;
    for (size_t i = 0; i < batch.comparisons.size(); ++i) {
      const Comparison& c = batch.comparisons[i];
      if (dedup && delivered_.TestAndAdd(c.x, c.y)) {
        // A pair sharing blocks owned by two shards was matched by
        // both; deliver the first verdict, drop the echo.
        ++duplicates;
        continue;
      }
      ++delivered;
      const bool is_match = batch.is_match[i] != 0;
      if (is_match) matched.emplace_back(c.x, c.y);
      if (options_.on_verdict) options_.on_verdict(c.x, c.y, is_match);
    }
    comparisons_.fetch_add(delivered, std::memory_order_relaxed);
    if (duplicates > 0) {
      duplicates_suppressed_.fetch_add(duplicates, std::memory_order_relaxed);
      obs::CounterAdd(duplicates_metric_, duplicates);
    }
    if (!matched.empty()) {
      matches_.fetch_add(matched.size(), std::memory_order_relaxed);
      // Fold the whole batch into the serving index before the user
      // callbacks, so a ClusterOf() issued from a callback already
      // sees the new co-clusterings.
      clusters_.AddMatches(matched.data(), matched.size());
      for (const auto& pair : matched) on_match_(pair.first, pair.second);
    }
    latency_tracker_.OnVerdictDelivered();
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      verdicts_consumed_.fetch_add(1, std::memory_order_release);
    }
    drained_cv_.notify_all();
  }
}

bool ShardedPipeline::DrainedLocked() const {
  if (queued_microbatches_.load(std::memory_order_acquire) != 0) return false;
  if (verdicts_pushed_.load(std::memory_order_acquire) !=
      verdicts_consumed_.load(std::memory_order_acquire)) {
    return false;
  }
  for (const auto& shard : shards_) {
    if (!shard->idle) return false;
  }
  return true;
}

void ShardedPipeline::Drain() {
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    drained_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) || DrainedLocked();
    });
  }
  // Quiescent: close out ingests that never produced a verdict. Their
  // samples are time-to-quiescence, not verdict freshness, so they
  // land in the drain histogram (see IngestLatencyTracker).
  latency_tracker_.FlushAll();
}

void ShardedPipeline::QuiesceLocked() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  drained_cv_.wait(lock, [this] {
    return stop_.load(std::memory_order_acquire) || DrainedLocked();
  });
}

uint64_t ShardedPipeline::ingests() const {
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  return ingest_count_;
}

size_t ShardedPipeline::execution_threads() const {
  return shards_.front()->executor->num_threads();
}

void ShardedPipeline::EnableCheckpoints(const std::string& dir, size_t every,
                                        size_t keep) {
  persist::CheckpointOptions options;
  options.dir = dir;
  options.every = every;
  options.keep = keep;
  options.metrics = metrics_;
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  checkpointer_ =
      std::make_unique<persist::CheckpointManager>(std::move(options));
}

void ShardedPipeline::CheckpointLocked() {
  // Quiesce first: holding ingest_mutex_ keeps new work out while the
  // shards and the combiner finish everything routed so far, so the
  // snapshot is a consistent cut of the whole pipeline.
  QuiesceLocked();
  if (stop_.load(std::memory_order_acquire)) return;
  persist::SnapshotBuilder builder;
  SnapshotLocked(builder);
  std::string error;
  if (checkpointer_->Write(ingest_count_, builder, &error).empty()) {
    std::fprintf(stderr, "pier: sharded checkpoint %" PRIu64 " failed: %s\n",
                 ingest_count_, error.c_str());
  }
}

void ShardedPipeline::SnapshotLocked(persist::SnapshotBuilder& builder) const {
  std::ostream& meta = builder.AddSection("sharded.meta");
  serial::WriteU32(meta, static_cast<uint32_t>(options_.shard_count));
  serial::WriteU64(meta, ingest_count_);
  serial::WriteU64(meta, comparisons_.load(std::memory_order_relaxed));
  serial::WriteU64(meta, matches_.load(std::memory_order_relaxed));
  serial::WriteU64(meta,
                   duplicates_suppressed_.load(std::memory_order_relaxed));
  dictionary_.Snapshot(builder.AddSection("sharded.dictionary"));
  profiles_.Snapshot(builder.AddSection("sharded.profiles"));
  std::ostream& filter = builder.AddSection("sharded.filter");
  // The leading bool records the exact/Bloom choice; the shard
  // fingerprints gate mutability, so an append-only pipeline can never
  // mis-decode a mutable snapshot past its own shard sections.
  serial::WriteBool(filter, options_.pipeline.exact_executed_filter);
  delivered_.Snapshot(filter);
  clusters_.Snapshot(builder.AddSection("sharded.clusters"));
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->pipeline->Snapshot(builder, "shard" + std::to_string(s));
  }
}

bool ShardedPipeline::RestoreFromSnapshot(std::istream& snapshot,
                                          std::string* error) {
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  auto set_error = [&](std::string message) {
    if (error != nullptr) *error = std::move(message);
  };
  if (stop_.load(std::memory_order_acquire)) {
    set_error("RestoreFromSnapshot rejected: the pipeline was stopped");
    return false;
  }
  if (poisoned_) {
    set_error(
        "RestoreFromSnapshot rejected: a previous failed restore left this "
        "pipeline partially restored; construct a fresh pipeline");
    return false;
  }
  if (ingest_count_ != 0 || !profiles_.empty()) {
    set_error(
        "RestoreFromSnapshot requires a pipeline that has not ingested "
        "anything");
    return false;
  }
  // Even a fresh pipeline's shard workers make one pass through
  // EmitBatch before parking in Pop; quiesce so no worker touches its
  // shard engine while the sections below overwrite it (with
  // ingest_mutex_ held, nothing can wake a parked worker until we
  // return).
  QuiesceLocked();
  if (stop_.load(std::memory_order_acquire)) {
    set_error("RestoreFromSnapshot rejected: the pipeline was stopped");
    return false;
  }
  persist::SnapshotReader reader;
  if (!reader.Parse(snapshot, error)) return false;
  std::istringstream meta;
  if (!reader.Open("sharded.meta", &meta, error)) return false;
  uint32_t shard_count = 0;
  uint64_t ingests = 0;
  uint64_t comparisons = 0;
  uint64_t matches = 0;
  uint64_t duplicates = 0;
  if (!serial::ReadU32(meta, &shard_count) ||
      !serial::ReadU64(meta, &ingests) ||
      !serial::ReadU64(meta, &comparisons) ||
      !serial::ReadU64(meta, &matches) ||
      !serial::ReadU64(meta, &duplicates)) {
    set_error("section 'sharded.meta' failed to decode");
    return false;
  }
  if (shard_count != options_.shard_count) {
    set_error("snapshot was written with " + std::to_string(shard_count) +
              " shards but this pipeline has " +
              std::to_string(options_.shard_count) +
              "; shard counts must match to restore");
    return false;
  }
  // Cheap structural checks before any mutation, so common mismatches
  // (wrong file, different shard layout) leave the pipeline usable.
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::string prefix = "shard" + std::to_string(s);
    if (!reader.Has(prefix + ".meta")) {
      set_error("snapshot is missing section '" + prefix +
                ".meta' (not a sharded-pipeline snapshot?)");
      return false;
    }
  }
  std::istringstream section;
  // From here on components mutate: a failure leaves the pipeline
  // partially restored, so it is poisoned and rejects further use.
  auto fail = [&](std::string message) {
    poisoned_ = true;
    set_error(std::move(message) +
              " (pipeline poisoned; construct a fresh instance to retry)");
    return false;
  };
  if (!reader.Open("sharded.dictionary", &section, error) ||
      !dictionary_.Restore(section)) {
    return fail("section 'sharded.dictionary' failed to restore");
  }
  // The token routes are a function of the dictionary (spelling hash
  // and id order), so they rebuild here instead of being stored.
  RouteNewTokens();
  if (!reader.Open("sharded.profiles", &section, error) ||
      !profiles_.Restore(section)) {
    return fail("section 'sharded.profiles' failed to restore");
  }
  if (!reader.Open("sharded.filter", &section, error)) {
    return fail("section 'sharded.filter' is missing");
  }
  bool exact = false;
  if (!serial::ReadBool(section, &exact) ||
      exact != options_.pipeline.exact_executed_filter) {
    return fail(
        "section 'sharded.filter' mode does not match "
        "options.exact_executed_filter");
  }
  if (!delivered_.Restore(section)) {
    return fail("section 'sharded.filter' failed to decode");
  }
  if (!reader.Open("sharded.clusters", &section, error) ||
      !clusters_.Restore(section)) {
    return fail("section 'sharded.clusters' failed to restore");
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]->pipeline->Restore(reader, error,
                                       "shard" + std::to_string(s))) {
      poisoned_ = true;
      if (error != nullptr) {
        *error += " (pipeline poisoned; construct a fresh instance to retry)";
      }
      return false;
    }
  }
  ingest_count_ = ingests;
  comparisons_.store(comparisons, std::memory_order_relaxed);
  matches_.store(matches, std::memory_order_relaxed);
  duplicates_suppressed_.store(duplicates, std::memory_order_relaxed);
  clusters_.TrackUpTo(profiles_.size());
  // Kick every shard with an empty microbatch: the restored
  // prioritizers may hold pending comparisons to resume emitting.
  std::vector<Microbatch> kick(options_.shard_count);
  const double arrival_s = lifetime_.ElapsedSeconds();
  for (auto& microbatch : kick) microbatch.arrival_s = arrival_s;
  Route(std::move(kick));
  return true;
}

}  // namespace pier
