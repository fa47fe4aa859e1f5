// Sharded worker/combiner ingest: the blocking-key space is
// partitioned across N shard pipelines connected by bounded microbatch
// queues, with a combiner stage merging the per-shard verdict streams
// into one serving ClusterIndex and match callback. This is the
// continuous-query scheduler/combiner split of streaming systems
// applied to progressive ER, and it is what lets ingest scale past the
// single worker of the one-mutex RealtimePipeline (which is now the
// N = 1 instantiation of this class).
//
// Routing invariant: every block key (token) is owned by exactly one
// shard -- Mix64(HashString(token)) % N -- and a block lives wholly in
// its owner. A profile is delivered to *every* shard (shard stores
// keep the global dense ids), but carries only the owner's slice of
// its tokens to each, so shard s builds exactly the blocks for the
// tokens it owns. Hence no comparison is lost (every active block
// exists in some shard at full size) and none is executed twice
// per-shard (each shard's executed-filter dedups its own emissions).
// A pair sharing tokens owned by different shards may be *matched*
// redundantly, once per owning shard; the combiner's global
// executed-pair filter suppresses the duplicate before it reaches the
// cluster index or the user callback (shard.duplicates_suppressed
// counts them).
//
// One token dictionary: the router's. It tokenizes each profile once
// and hands every shard a token-only profile whose ids are
// *shard-local*: a token's local id is its rank among the shard's
// tokens in global-id order. The router keeps each token's (owner,
// local id) route beside the dictionary and rebuilds the routes from
// it on restore, so shard engines never see a spelling and their own
// dictionaries stay empty.
//
// Determinism contract: each shard's verdict substream is a
// deterministic function of what it ingests between emissions, at any
// match thread count (the per-shard engine is the deterministic
// PierPipeline + ParallelMatchExecutor). The combiner merges
// substreams in arrival order, so the *interleaving* across shards
// varies run to run. With the exact executed filter and no block
// purging, the delivered verdict *set* and the final clusters are
// identical for every shard count, including N = 1 (canonical cluster
// ids make cluster answers merge-order independent);
// tests/sharded_pipeline_test.cc checks this for I-PES against the
// single-pipeline run. Under the default configuration they are not:
// how many microbatches a shard ingests between two EmitBatch calls,
// and the wall-clock findK(), depend on thread timing, and with Bloom
// filters, bounded queues and purging that changes which pairs
// survive, so N > 1 runs deliver slightly different verdict sets from
// run to run. N = 1 is deterministic.
//
// Threading model:
//  * Producers call Ingest (thread-safe, serialized on the router
//    mutex). The router tokenizes once into the global dictionary and
//    the global chunked ProfileStore (the store matchers read,
//    lock-free), then routes one microbatch of token-only profiles
//    per shard.
//  * Microbatch queues are bounded: when a shard falls behind, Push
//    blocks the router -- and transitively every producer -- until
//    the shard catches up (head-of-line backpressure by design; the
//    shard.backpressure_* metrics make it observable).
//  * Each shard worker owns its PierPipeline outright -- no lock at
//    all on shard state, the queue is the only synchronization. It
//    alternates ingesting queued microbatches with emit->match->push
//    of verdict batches (matching reads the *global* store).
//  * The combiner thread dedups verdicts across shards, folds matches
//    into the serving ClusterIndex (batched seqlock windows), and
//    runs the user callback. Cluster queries stay lock-free
//    seqlock-validated reads, never blocked by any of this.

#ifndef PIER_STREAM_SHARDED_PIPELINE_H_
#define PIER_STREAM_SHARDED_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pier_pipeline.h"
#include "model/pair_filter.h"
#include "similarity/matcher.h"
#include "similarity/parallel_executor.h"
#include "stream/ingest_latency.h"
#include "stream/shard_queue.h"
#include "util/stopwatch.h"

namespace pier {
namespace persist {
class CheckpointManager;
class SnapshotBuilder;
}  // namespace persist
}  // namespace pier

namespace pier {

struct ShardedOptions {
  // Per-shard engine configuration (kind, strategy, capacities,
  // tokenizer, executor threads, metrics sink). execution_threads is
  // the match parallelism *within* each shard; total match threads are
  // shard_count * execution_threads. metrics, when set, receives the
  // realtime.* / shard.* pipeline metrics plus every sub-component's
  // (aggregated across shards for same-named stage counters).
  PierOptions pipeline;
  // Number of shard workers (1 = the classic RealtimePipeline).
  size_t shard_count = 1;
  // Bounded microbatch queue depth per shard; a full queue blocks
  // Ingest (backpressure).
  size_t queue_capacity = 64;
  // Bounded combiner input queue depth (verdict batches).
  size_t verdict_queue_capacity = 256;
  // Test seam: called from the combiner thread for every
  // *deduplicated* executed comparison, match or not, in delivery
  // order. The equivalence tests collect the verdict set here.
  std::function<void(ProfileId, ProfileId, bool)> on_verdict;
};

class ShardedPipeline {
 public:
  // Called from the combiner thread for every pair the matcher
  // classified as a duplicate (after cross-shard dedup).
  using MatchCallback = std::function<void(ProfileId, ProfileId)>;

  // `matcher` must outlive this object.
  ShardedPipeline(ShardedOptions options, const Matcher* matcher,
                  MatchCallback on_match);

  // Stops all workers and joins them (see Stop()).
  ~ShardedPipeline();

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  // Thread-safe, multi-producer: tokenizes the increment into the
  // global dictionary/store and routes one microbatch per shard.
  // Profiles either carry dense ids continuing ingestion order, or
  // kInvalidProfileId to have the router assign the next dense id
  // (required when multiple producers ingest concurrently). Blocks
  // while any shard queue is full (backpressure). Returns false --
  // with a stderr diagnostic -- after Stop() or after a restore
  // attempt that failed mid-way (the pipeline is then poisoned: its
  // state is partial and no worker will produce correct results from
  // it). A Stop() racing an Ingest blocked on backpressure also
  // returns false: the microbatches of that increment were dropped
  // (in whole or in part) when the queues closed, and reporting
  // success would silently lose the increment.
  bool Ingest(std::vector<EntityProfile> profiles);

  // Mutable streams (requires options.pipeline.mutable_stream).
  // Thread-safe; serialized on the router mutex like Ingest. Each call
  // quiesces the pipeline (drains every routed microbatch and every
  // undelivered verdict), then applies the mutation synchronously to
  // the global state and every shard engine, so when it returns the
  // serving index already reflects it: ClusterOf on a deleted id
  // reports absence, surviving members of its cluster re-resolve over
  // their remaining match edges, and a corrected profile restarts as a
  // singleton whose comparisons are rescheduled. Returns false after
  // Stop() or on a poisoned pipeline. Ids must be < profiles().size();
  // deleting an already-deleted id is a no-op (idempotent).
  bool Delete(const std::vector<ProfileId>& ids);
  bool Update(std::vector<EntityProfile> profiles);

  // Signals that no further increments will arrive: routes a
  // stream-end marker to every shard, unlocking the block scanners'
  // full tail rescan. Call before the final Drain() for eventual
  // (batch-ER) quality.
  void NotifyStreamEnd();

  // Blocks until every routed microbatch is ingested, every shard's
  // prioritizer is empty, and the combiner has delivered every verdict
  // -- i.e. cluster queries reflect all work routed so far. Returns
  // immediately after Stop().
  void Drain();

  // Stops workers and the combiner and joins them; queued microbatches
  // and undelivered verdicts are abandoned (same contract as
  // destroying the pipeline mid-stream). Idempotent. Subsequent
  // Ingest() calls are rejected.
  void Stop();

  // Best-effort durability: after every `every`-th Ingest the router
  // quiesces the pipeline (drains in-flight work) and writes an atomic
  // snapshot of the full sharded state -- global router sections plus
  // one `shard<i>.*` family per shard -- to `dir`, rotated down to the
  // newest `keep` files (see persist/checkpoint_manager.h).
  void EnableCheckpoints(const std::string& dir, size_t every = 10,
                         size_t keep = 3);

  // Restores from a snapshot written by a ShardedPipeline with the
  // same shard_count and per-shard options. Must be called before the
  // first Ingest. On a corrupt file, an options/shard-count mismatch
  // detected up front, or an already-used pipeline, returns false with
  // a diagnostic and the pipeline stays usable (state untouched). If a
  // component fails to decode *after* restoration began, the pipeline
  // is left partially restored and becomes poisoned: every subsequent
  // Ingest is rejected with a diagnostic -- construct a fresh instance
  // to retry.
  bool RestoreFromSnapshot(std::istream& snapshot, std::string* error);

  // Online cluster queries (thread-safe, lock-free seqlock reads; see
  // serve/cluster_index.h). Answers always reflect a prefix of the
  // delivered verdict stream.
  serve::ClusterView ClusterOf(ProfileId id) const {
    return clusters_.ClusterOf(id);
  }
  ProfileId ClusterIdOf(ProfileId id) const {
    return clusters_.ClusterIdOf(id);
  }
  const serve::ClusterIndex& clusters() const { return clusters_; }

  // The global profile store every shard's matcher reads (stable
  // addresses under concurrent ingest).
  const ProfileStore& profiles() const { return profiles_; }

  // Statistics (thread-safe, approximate while running).
  // comparisons_processed / matches_found count *delivered* (post
  // cross-shard dedup) comparisons and matches; duplicates_suppressed
  // counts cross-shard redundant executions the combiner dropped.
  uint64_t comparisons_processed() const { return comparisons_.load(); }
  uint64_t matches_found() const { return matches_.load(); }
  uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_.load();
  }
  // Ingest() calls so far (after a restore: as of the checkpoint, so
  // callers can resume feeding increments from here).
  uint64_t ingests() const;

  size_t shard_count() const { return options_.shard_count; }
  // Match-execution threads per shard.
  size_t execution_threads() const;

 private:
  // What the router sends each shard per Ingest: every profile of the
  // increment, token-only, with the shard's owned token slice as
  // shard-local ids (possibly empty -- shard stores keep global dense
  // ids).
  struct Microbatch {
    std::vector<EntityProfile> profiles;
    double arrival_s = 0.0;
    bool stream_end = false;
  };

  // What a shard worker sends the combiner per executed batch.
  struct VerdictBatch {
    size_t shard = 0;
    std::vector<Comparison> comparisons;
    std::vector<uint8_t> is_match;
  };

  struct Shard {
    std::unique_ptr<PierPipeline> pipeline;
    std::unique_ptr<ParallelMatchExecutor> executor;
    std::unique_ptr<ShardQueue<Microbatch>> queue;
    std::thread worker;
    bool idle = true;  // guarded by state_mutex_
    obs::Gauge* queue_depth_metric = nullptr;
    obs::Gauge* busy_metric = nullptr;
  };

  void ShardLoop(size_t shard_index);
  void CombinerLoop();
  void IngestMicrobatch(Shard& shard, Microbatch& microbatch);
  // Marks the shard idle under state_mutex_ (waking Drain waiters) and
  // keeps the idle gauges coherent.
  void MarkShardIdle(Shard& shard);
  // A worker popped a microbatch: marks the shard busy and consumes
  // one unit of the queued-microbatch account in the same critical
  // section, so the Drain predicate can never observe "nothing queued,
  // everyone idle" while the pop is still in flight.
  void OnMicrobatchPopped(Shard& shard);
  // Routes every dictionary id not routed yet, in id order: owner
  // shard from the spelling hash, local id = the owner's next rank.
  // Caller holds ingest_mutex_.
  void RouteNewTokens();
  // Appends `profile`'s token-only slice for every shard to
  // slices[shard]. Caller holds ingest_mutex_.
  void AppendShardSlices(const EntityProfile& profile,
                         std::vector<std::vector<EntityProfile>>& slices);
  // Routes one microbatch per shard. Caller holds ingest_mutex_.
  // Returns false when any queue rejected its microbatch (closed by a
  // concurrent Stop()): part of the work was dropped and the caller
  // must not report the increment as ingested.
  bool Route(std::vector<Microbatch> per_shard);
  // Common Delete/Update prologue: rejects stopped/poisoned pipelines,
  // checks the mutability mode, and quiesces. Caller holds
  // ingest_mutex_. Returns false when the mutation must be rejected.
  bool BeginMutationLocked(const char* verb);
  // Retracts one live profile from the router's state: the delivered
  // filter and the serving index (store tombstone excluded). Shard
  // engines retract it in their own Delete / UpdateTokenized call.
  // Caller holds ingest_mutex_ after QuiesceLocked().
  void RetractLocked(ProfileId id);
  // Waits until all routed work is fully processed. Caller holds
  // ingest_mutex_ (so no new work can arrive).
  void QuiesceLocked();
  bool DrainedLocked() const;  // caller holds state_mutex_
  // Serializes the full quiesced state. Caller holds ingest_mutex_
  // after QuiesceLocked().
  void SnapshotLocked(persist::SnapshotBuilder& builder) const;
  void CheckpointLocked();

  ShardedOptions options_;
  const Matcher* matcher_;
  MatchCallback on_match_;

  // Router-owned global state, guarded by ingest_mutex_. The profile
  // store and dictionary are written only here; matchers read the
  // store lock-free (chunked stable addresses).
  mutable std::mutex ingest_mutex_;
  Tokenizer tokenizer_;
  TokenDictionary dictionary_;
  ProfileStore profiles_;
  // Global TokenId -> (owner shard, shard-local id), one entry per
  // dictionary id; shard_token_counts_[s] is shard s's next local id.
  struct TokenRoute {
    uint32_t shard;
    TokenId local;
  };
  std::vector<TokenRoute> token_routes_;
  std::vector<TokenId> shard_token_counts_;
  Stopwatch lifetime_;
  uint64_t ingest_count_ = 0;
  bool poisoned_ = false;
  std::unique_ptr<persist::CheckpointManager> checkpointer_;

  // Combiner-owned cross-shard executed-pair filter (combiner thread
  // only while running; router reads/writes it only when quiesced),
  // in the pipeline options' filter mode.
  PairFilter delivered_;

  // The serving index: written by the router (TrackUpTo) and the
  // combiner (AddMatches), queried lock-free from anywhere.
  serve::ClusterIndex clusters_;

  std::vector<std::unique_ptr<Shard>> shards_;
  ShardQueue<VerdictBatch> verdict_queue_;
  std::thread combiner_;

  // Drain/idle protocol: any transition that can complete a Drain
  // (shard going idle, microbatch consumed, verdict delivered)
  // happens under state_mutex_ before notifying drained_cv_.
  mutable std::mutex state_mutex_;
  std::condition_variable drained_cv_;
  std::atomic<bool> stop_{false};
  // Serializes Stop() (idempotent shutdown: close queues, join).
  std::mutex stop_mutex_;
  bool stopped_ = false;  // guarded by stop_mutex_
  std::atomic<uint64_t> queued_microbatches_{0};
  std::atomic<uint64_t> verdicts_pushed_{0};
  std::atomic<uint64_t> verdicts_consumed_{0};

  std::atomic<uint64_t> comparisons_{0};
  std::atomic<uint64_t> matches_{0};
  std::atomic<uint64_t> duplicates_suppressed_{0};

  // realtime.* metrics (the names predate sharding and are shared with
  // the N = 1 facade) plus the shard.* fan-out metrics; all null when
  // un-instrumented.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* ingests_metric_ = nullptr;
  obs::Counter* deletes_metric_ = nullptr;
  obs::Counter* updates_metric_ = nullptr;
  obs::Counter* batches_metric_ = nullptr;
  obs::Counter* idle_transitions_metric_ = nullptr;
  obs::Gauge* worker_idle_metric_ = nullptr;
  obs::Histogram* match_ns_metric_ = nullptr;
  obs::Gauge* queue_depth_metric_ = nullptr;
  obs::Counter* microbatches_metric_ = nullptr;
  obs::Counter* backpressure_waits_metric_ = nullptr;
  obs::Histogram* backpressure_wait_ns_metric_ = nullptr;
  obs::Gauge* verdict_queue_depth_metric_ = nullptr;
  obs::Counter* verdict_batches_metric_ = nullptr;
  obs::Counter* duplicates_metric_ = nullptr;
  IngestLatencyTracker latency_tracker_;
};

}  // namespace pier

#endif  // PIER_STREAM_SHARDED_PIPELINE_H_
