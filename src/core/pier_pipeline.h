// The PIER pipeline facade (Figure 3 / Section 3.2): wires Data
// Reading (tokenization), Incremental Blocking, Incremental Comparison
// Prioritization (one strategy of the strategy table), and the adaptive
// findK() controller into the public API downstream users interact
// with.
//
// Typical use, one resolution step per batch (DESIGN.md §4; see
// examples/construction_monitor.cpp):
//
//   pier::PierOptions options;
//   options.kind = pier::DatasetKind::kCleanClean;
//   pier::PierPipeline pipeline(options);
//   pier::ParallelMatchExecutor executor(&matcher, /*num_threads=*/1);
//   pipeline.Ingest(std::move(new_profiles));      // per increment
//   auto batch = pipeline.EmitBatch();             // between arrivals
//   auto verdicts = executor.Execute(batch, pipeline.profiles());
//   pipeline.RecordVerdicts(batch, verdicts, match_seconds);
//   pipeline.Tick();  // when idle, pulls older pairs forward
//
// The pipeline owns all shared state; it is single-threaded by design
// (the paper's asynchronous stages are reproduced by the stream
// simulator's virtual-time interleaving).

#ifndef PIER_CORE_PIER_PIPELINE_H_
#define PIER_CORE_PIER_PIPELINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blocking/block_collection.h"
#include "core/find_k.h"
#include "core/prioritizer.h"
#include "model/comparison.h"
#include "model/entity_profile.h"
#include "model/pair_filter.h"
#include "model/profile_store.h"
#include "model/token_dictionary.h"
#include "obs/metrics.h"
#include "serve/cluster_index.h"
#include "text/tokenizer.h"

namespace pier {

namespace persist {
class SnapshotBuilder;
class SnapshotReader;
}  // namespace persist

enum class PierStrategy : uint8_t {
  kIPcs = 0,
  kIPbs = 1,
  kIPes = 2,
  // Frontier strategies (src/frontier/): stochastic top-k sampling and
  // verdict-feedback block boosting. First-class citizens of the same
  // machinery (snapshots, mutable streams, harness, CLI).
  kSperSk = 3,
  kFbPcs = 4,
};

// The strategy table in pier_pipeline.cc (one {strategy, name,
// factory} row per strategy, in enum order) backs these four functions
// and the PierPipeline constructor.
const char* ToString(PierStrategy strategy);

// Every selectable strategy, in enum order. Parametrized test suites
// and sweeps iterate this instead of hand-listing strategies.
const std::vector<PierStrategy>& AllStrategies();

// Comma-separated canonical names of AllStrategies(), for diagnostics
// (`pier_cli --algorithm` lists them on an unknown name).
const char* KnownAlgorithmNames();

// Parses a user-facing algorithm name into a strategy. Accepts the
// table names case-insensitively. Returns false -- with *out untouched
// -- for anything else, including "auto" (callers handle
// auto-selection via RecommendStrategy themselves).
bool ParseAlgorithmName(const std::string& name, PierStrategy* out);

struct PierOptions {
  DatasetKind kind = DatasetKind::kDirty;
  PierStrategy strategy = PierStrategy::kIPes;
  BlockingOptions blocking;
  PrioritizerOptions prioritizer;
  AdaptiveKOptions adaptive_k;
  TokenizerOptions tokenizer;
  // Worker threads for match execution (RealtimePipeline and other
  // executor-based deployments). 1 = sequential. The verdict stream is
  // deterministic and identical for every value (see
  // similarity/parallel_executor.h).
  size_t execution_threads = 1;
  // Optional observability sink (src/obs/): when set, the pipeline and
  // its adaptive-K controller register `pipeline.*` / `findk.*`
  // metrics there. Non-owning; must outlive the pipeline.
  obs::MetricsRegistry* metrics = nullptr;
  // Shard identity for the sharded ingest path (see
  // stream/sharded_pipeline.h): count > 1 marks this pipeline as
  // owning the slice of the token space with
  // Mix64(HashString(token)) % count == index. The pipeline itself
  // does not filter tokens (the shard router hands it only its slice);
  // the fields exist so a shard snapshot carries its identity in the
  // options fingerprint.
  uint32_t token_shard_count = 1;
  uint32_t token_shard_index = 0;
  // Maintain the in-pipeline cluster index (TrackUpTo on ingest,
  // serve.* instrumentation). Sharded deployments disable this on
  // shard sub-pipelines: their workers' delivery step feeds the single
  // serving index.
  bool track_clusters = true;
  // Mutable streams: accept Delete / Update increments. Each pair
  // filter -- the executed-comparison filter, I-PBS's CF, the sharded
  // delivery step's filter -- withdraws a retracted profile's
  // pairs, and the cluster index keeps its match edges. It changes the
  // cluster index's snapshot wire format, so it participates in the
  // options fingerprint.
  bool mutable_stream = false;
};

class PierPipeline {
 public:
  explicit PierPipeline(PierOptions options);
  ~PierPipeline();

  PierPipeline(const PierPipeline&) = delete;
  PierPipeline& operator=(const PierPipeline&) = delete;

  // Data Reading + Incremental Blocking + prioritizer update for one
  // increment. Profiles must carry dense ids continuing the ingestion
  // order; tokens/flat_text are filled here. An empty increment (here
  // and in the three calls below) returns at once; Tick() is the idle
  // tick.
  WorkStats Ingest(std::vector<EntityProfile> profiles);

  // Sharded-ingest seam: same as Ingest, but for profiles whose
  // sorted, de-duplicated token ids were already set by an upstream
  // router (stream/sharded_pipeline.h) in an id space of its choosing;
  // this pipeline's dictionary stays untouched. Shard engines receive
  // token-only profiles (no attributes / flat_text -- they never feed
  // the matcher, which reads the router's global store instead).
  WorkStats IngestTokenized(std::vector<EntityProfile> profiles);

  // Mutable streams (requires options.mutable_stream): retracts the
  // given live profiles. Each delete withdraws the profile from the
  // block collection, the prioritizer's pending comparisons, the pair
  // filter (via its pair registry), and the cluster index (surviving
  // cluster members re-resolve over their remaining match edges); the
  // profile store slot becomes a tombstone (ids are never reused). Ids
  // already dead are skipped (idempotent, so shard routers can fan a
  // delete out to every shard).
  WorkStats Delete(const std::vector<ProfileId>& ids);

  // Mutable streams: corrections. Each profile replaces the live (or
  // tombstoned) profile with the same id: the old version is retracted
  // exactly as in Delete, then the new content is tokenized, blocked,
  // and scheduled like a fresh arrival. The profile re-enters the
  // cluster index as a singleton; its cluster membership re-forms from
  // post-update match verdicts.
  WorkStats Update(std::vector<EntityProfile> profiles);

  // Sharded-ingest seam for Update, mirroring IngestTokenized: the
  // router already set the corrected profiles' token ids.
  WorkStats UpdateTokenized(std::vector<EntityProfile> profiles);

  // The periodic empty increment the blocking step emits while the
  // stream is idle; lets the prioritizer pull older pairs forward.
  WorkStats Tick();

  // Signals that no further increments will arrive; unlocks the block
  // scanner's full tail rescan for eventual quality.
  void NotifyStreamEnd() { prioritizer_->OnStreamEnd(); }

  // Algorithm 1, lines 3-9: dequeues up to findK() best comparisons,
  // suppressing any comparison already executed (unless the strategy's
  // own filter already keeps its pairs unique). When the index
  // underfills the batch, the pipeline pulls more work forward with
  // internal idle ticks (the blocking step's empty increments), so an
  // empty result means the pipeline is fully drained for now.
  std::vector<Comparison> EmitBatch();
  // Same, with an explicit K (used by tests and baselines). `stats`,
  // when non-null, accumulates the work of any internal ticks.
  std::vector<Comparison> EmitBatch(size_t k, WorkStats* stats = nullptr);

  // Arrival-rate feedback for the adaptive-K controller.
  void ReportArrival(double t) { adaptive_k_.OnArrival(t); }

  bool PrioritizerEmpty() const { return prioritizer_->Empty(); }

  // The feedback half of the resolution step (Algorithm 1, after
  // matching): verdicts[i] is the matcher's classification of
  // batch[i]. Every verdict goes to the prioritizer (RecordVerdict),
  // every positive to the cluster index (RecordMatch, only when
  // track_clusters), and the batch's matching time to the findK()
  // controller. Every driver calls this once per executed batch; a
  // driver that skipped it would silently turn FB-PCS into I-PCS.
  void RecordVerdicts(const std::vector<Comparison>& batch,
                      const std::vector<MatchVerdict>& verdicts,
                      double match_seconds);

  // Per-pair halves of RecordVerdicts, for closed-loop drivers that
  // classify pairs one at a time (pierbench). RecordMatch merges the
  // two profiles' clusters in the online index and is safe against
  // concurrent cluster queries; RecordVerdict feeds one classification
  // (positive or negative) to the prioritizer, which feedback
  // strategies (FB-PCS) use to promote/demote blocks mid-stream.
  void RecordMatch(ProfileId a, ProfileId b) { clusters_.AddMatch(a, b); }
  void RecordVerdict(ProfileId a, ProfileId b, bool is_match) {
    prioritizer_->RecordVerdict(a, b, is_match);
  }

  // The online cluster-serving index (see serve/cluster_index.h).
  // Query methods (ClusterOf / ClusterIdOf / ClusterSizeOf) are safe
  // to call concurrently with Ingest / RecordMatch.
  const serve::ClusterIndex& clusters() const { return clusters_; }

  const ProfileStore& profiles() const { return profiles_; }
  const BlockCollection& blocks() const { return blocks_; }
  const TokenDictionary& dictionary() const { return dictionary_; }
  const IncrementalPrioritizer& prioritizer() const { return *prioritizer_; }
  // The one filter that deduplicates this pipeline's emitted pairs: the
  // executed-comparison filter, or the strategy's own unique-pair
  // filter when it has one (I-PBS's CF).
  const PairFilter& pair_filter() const {
    return executed_ ? *executed_ : *prioritizer_->UniquePairFilter();
  }
  AdaptiveK& adaptive_k() { return adaptive_k_; }
  uint64_t comparisons_emitted() const { return comparisons_emitted_; }

  // Checkpoint support (see src/persist/snapshot.h): serializes every
  // stateful component -- dictionary, profile store, block collection,
  // prioritizer internals, executed-comparison filter (absent for
  // I-PBS, whose CF is part of the prioritizer section), findK
  // controller -- into `<prefix>.*` sections, plus a `<prefix>.meta`
  // options fingerprint. The default prefix "pier" is the historical
  // single-pipeline layout; the sharded pipeline passes "shard<i>" so
  // N shard engines coexist in one snapshot file. Also refreshes the
  // `persist.state_bytes.*` gauges.
  void Snapshot(persist::SnapshotBuilder& builder,
                const std::string& prefix = "pier") const;

  // Restores from a validated snapshot into this *freshly constructed*
  // pipeline. The snapshot's options fingerprint must match this
  // pipeline's options (strategy, kind, capacities, tokenizer...);
  // mismatches and decode failures return false with a diagnostic in
  // *error and must be treated as fatal for the restore attempt.
  // `prefix` selects the section family and must match the Snapshot
  // call that produced the file.
  bool Restore(const persist::SnapshotReader& reader, std::string* error,
               const std::string& prefix = "pier");

 private:
  // Matching-cost feedback for the adaptive-K controller; fed only
  // through RecordVerdicts.
  void ReportBatchCost(size_t comparisons, double seconds) {
    adaptive_k_.OnBatchProcessed(comparisons, seconds);
  }

  // The one body that adds profiles (Ingest, Update and their
  // *Tokenized seams): per profile, retracts the live version a
  // correction replaces, tokenizes (unless the caller already set the
  // token ids), blocks and stores it; then schedules the increment's
  // comparisons.
  WorkStats AddProfiles(std::vector<EntityProfile> profiles, bool tokenize,
                        bool correction);

  // Drops every repeat of an id from a correction's delta, keeping the
  // first. A profile corrected twice in one call is then scheduled once,
  // for its last version (its earlier version's pairs were never
  // generated), so the strategy generates each of its pairs once.
  static void ScheduleOnce(std::vector<ProfileId>* delta);

  // Delete internals for one live profile (shared by Delete and the
  // retract half of Update): everything except the profile-store
  // tombstone, which Delete writes and Update replaces.
  void RetractProfile(ProfileId id, WorkStats* stats);

  // `pipeline.*` stage metrics; all null when options.metrics is null.
  struct Metrics {
    obs::Counter* profiles_ingested = nullptr;
    obs::Counter* tokens_ingested = nullptr;
    obs::Counter* block_updates = nullptr;
    obs::Counter* increments = nullptr;
    obs::Counter* ticks = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* comparisons_emitted = nullptr;
    obs::Counter* comparisons_suppressed = nullptr;
    obs::Counter* comparisons_retracted = nullptr;
    obs::Counter* profiles_deleted = nullptr;
    obs::Counter* profiles_updated = nullptr;
    obs::Histogram* ingest_ns = nullptr;
    obs::Histogram* emit_ns = nullptr;
    obs::Histogram* batch_size = nullptr;
    // `persist.state_bytes.*` gauges, refreshed on every Snapshot.
    obs::Gauge* state_bytes_profiles = nullptr;
    obs::Gauge* state_bytes_blocks = nullptr;
    obs::Gauge* state_bytes_dictionary = nullptr;
    obs::Gauge* state_bytes_filter = nullptr;
    obs::Gauge* state_bytes_clusters = nullptr;
  };

  PierOptions options_;
  Metrics metrics_;
  TokenDictionary dictionary_;
  ProfileStore profiles_;
  BlockCollection blocks_;
  Tokenizer tokenizer_;
  std::unique_ptr<IncrementalPrioritizer> prioritizer_;
  AdaptiveK adaptive_k_;

  serve::ClusterIndex clusters_;
  // Executed-comparison filter (model/pair_filter.h). Absent when the
  // strategy's UniquePairFilter() already keeps its emitted pairs
  // unique; fixed at construction, so EmitBatch tests a cached flag
  // rather than asking the strategy per pair.
  std::optional<PairFilter> executed_;
  uint64_t comparisons_emitted_ = 0;
};

}  // namespace pier

#endif  // PIER_CORE_PIER_PIPELINE_H_
