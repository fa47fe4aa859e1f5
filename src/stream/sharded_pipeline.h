// Sharded ingest: the blocking-key space is partitioned across N shard
// pipelines fed by bounded microbatch queues, one worker thread per
// shard, and each worker delivers its own verdicts into one serving
// ClusterIndex and match callback through a serialized delivery step.
// This is the scheduler/worker split of streaming systems applied to
// progressive ER, and it is what lets ingest scale past the single
// worker of the one-mutex RealtimePipeline (which is now the N = 1
// instantiation of this class).
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
// redundantly, once per owning shard; the delivery step's global
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
// PierPipeline + ParallelMatchExecutor). Workers deliver substreams in
// the order they take the delivery lock, so the *interleaving* across
// shards varies run to run. With no block purging, the delivered
// verdict *set* and the final clusters are identical for every shard
// count, including N = 1 (canonical cluster ids make cluster answers
// merge-order independent); tests/sharded_pipeline_test.cc checks this
// for every strategy against the single-pipeline run. Under the
// default configuration (purging, wall-clock findK()) the drained match
// set still measures the same at N = 1, 2 and 4 (DESIGN.md §8), but the
// executed comparisons and the verdict order vary from run to run at
// every N: how many microbatches a shard ingests between two EmitBatch
// calls, and the wall-clock findK(), depend on thread timing.
//
// Threading model: one worker thread per shard, plus the producers'.
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
//    alternates ingesting queued microbatches with emit -> match ->
//    deliver (matching reads the *global* store).
//  * Delivery is serialized on one mutex: the cross-shard dedup, the
//    delivered counts, the fold into the serving ClusterIndex
//    (batched seqlock windows) and the user callbacks run for one
//    batch at a time, on the worker that matched it. Cluster queries
//    stay lock-free seqlock-validated reads, never blocked by any of
//    this.

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
  // Test seam: called for every *deduplicated* executed comparison,
  // match or not, in delivery order, on the shard worker that matched
  // it, one call at a time (see MatchCallback). The equivalence tests
  // collect the verdict set here.
  std::function<void(ProfileId, ProfileId, bool)> on_verdict;
};

class ShardedPipeline {
 public:
  // Called for every pair the matcher classified as a duplicate (after
  // cross-shard dedup), in delivery order. It runs on the shard worker
  // that matched the pair, inside the serialized delivery step: calls
  // never overlap each other or on_verdict, and the serving index
  // already holds the pair's batch. The callback must not call
  // Ingest, Delete, Update, Drain or Stop (the worker would wait on
  // itself); cluster queries are fine.
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
  // prioritizer is empty, and every verdict is delivered -- i.e.
  // cluster queries reflect all work routed so far. Returns
  // immediately after Stop().
  void Drain();

  // Stops the shard workers and joins them; queued microbatches are
  // abandoned, and a worker inside a batch delivers it before it
  // exits (same contract as destroying the pipeline mid-stream).
  // Idempotent. Subsequent Ingest() calls are rejected.
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
  // counts cross-shard redundant executions the delivery step dropped.
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

  struct Shard {
    std::unique_ptr<PierPipeline> pipeline;
    std::unique_ptr<ParallelMatchExecutor> executor;
    std::unique_ptr<ShardQueue<Microbatch>> queue;
    std::thread worker;
    // Guarded by state_mutex_. False until the worker's first pass
    // through EmitBatch parks it, so a quiesce on a fresh pipeline
    // waits for that pass too.
    bool idle = false;
    obs::Gauge* queue_depth_metric = nullptr;
    obs::Gauge* busy_metric = nullptr;
  };

  void ShardLoop(size_t shard_index);
  // Hands one matched batch to the serving side under delivery_mutex_:
  // per pair the cross-shard dedup (N > 1 only) and on_verdict, then
  // the delivered counts, the serving index, on_match and the
  // freshness tracker.
  void Deliver(const std::vector<Comparison>& batch,
               const std::vector<MatchVerdict>& verdicts);
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

  // Serializes Deliver across shard workers.
  std::mutex delivery_mutex_;
  // Cross-shard executed-pair filter (Deliver only while running,
  // under delivery_mutex_; the router reads/writes it only when
  // quiesced).
  PairFilter delivered_;

  // The serving index: written by the router (TrackUpTo) and Deliver
  // (AddMatches), queried lock-free from anywhere.
  serve::ClusterIndex clusters_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Drain/idle protocol: any transition that can complete a Drain
  // (shard going idle, microbatch consumed) happens under state_mutex_
  // before notifying drained_cv_.
  mutable std::mutex state_mutex_;
  std::condition_variable drained_cv_;
  std::atomic<bool> stop_{false};
  // Serializes Stop() (idempotent shutdown: close queues, join).
  std::mutex stop_mutex_;
  bool stopped_ = false;  // guarded by stop_mutex_
  std::atomic<uint64_t> queued_microbatches_{0};

  std::atomic<uint64_t> comparisons_{0};
  std::atomic<uint64_t> matches_{0};
  std::atomic<uint64_t> duplicates_suppressed_{0};

  // realtime.* metrics (the names predate sharding and are shared with
  // the N = 1 RealtimePipeline) plus the shard.* fan-out metrics; all
  // null when un-instrumented.
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
  obs::Counter* duplicates_metric_ = nullptr;
  IngestLatencyTracker latency_tracker_;
};

}  // namespace pier

#endif  // PIER_STREAM_SHARDED_PIPELINE_H_
