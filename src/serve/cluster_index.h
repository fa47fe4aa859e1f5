// Online entity-cluster serving index: the production query behind
// user-facing dedup is "which entity cluster does this record belong
// to *right now*?". ClusterIndex maintains the connected components of
// the match graph incrementally -- union-find with path compression
// and union-by-size, fed one match verdict at a time -- and answers
// ClusterOf(profile_id) queries *concurrently with ingest*.
//
// Reader/writer protocol (seqlock):
//  * Writers (TrackUpTo from the ingest path, AddMatch from the match
//    worker) serialize on an internal mutex and bump a version counter
//    to odd before mutating and back to even after. Writers never wait
//    for readers, so queries can never block the ingest hot path.
//  * Readers (ClusterOf / ClusterIdOf / ClusterSizeOf) are lock-free:
//    they snapshot the version, walk the structure through atomic
//    loads only (no path compression on the read side), and retry when
//    the version moved or was odd. Every cell is a std::atomic, so a
//    torn read is impossible and a concurrent mutation costs at most a
//    retry.
//  * Growth publishes fully-initialized entries before releasing the
//    size counter, and storage is chunked (stable addresses, like
//    ProfileStore), so readers never observe uninitialized cells and
//    no reallocation can pull memory out from under a reader.
//
// Cluster ids are *canonical*: the id of a cluster is the smallest
// ProfileId among its members. That makes query answers independent of
// merge order and internal tree shape -- two runs that discovered the
// same matches in different orders serve identical answers -- and is
// also what makes the snapshot encoding canonical (same partition,
// same bytes), so Snapshot -> Restore -> Snapshot round-trips
// byte-identically and a restored index serves exactly the answers the
// original did.
//
// Member lists use the classic circular-successor trick: every profile
// carries a `next member` pointer forming one cycle per cluster, and
// merging two clusters is a single swap of the two roots' successors
// (O(1), no allocation). A reader materializes a member list by
// walking the cycle under the seqlock.
//
// Retraction (mutable streams): union-find cannot un-merge, so with
// EnableRetraction() the index additionally keeps the match edges
// (writer-side adjacency, never touched by readers). RemoveProfile
// tombstones a record -- readers report absence -- and re-resolves the
// surviving members of its cluster by reconnecting them over the
// remaining edges inside one seqlock window, so stale merges through
// the deleted record dissolve. Dead cells hold the kDeadParent
// sentinel in parent_; reader walks treat any out-of-universe parent
// as "dead or torn" and either answer absence (version unchanged) or
// retry.

#ifndef PIER_SERVE_CLUSTER_INDEX_H_
#define PIER_SERVE_CLUSTER_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "model/types.h"
#include "obs/metrics.h"

namespace pier {
namespace serve {

// One query answer: the canonical cluster id (smallest member id) and
// the full member list in ascending id order. Profiles the index has
// never seen are reported as singletons.
struct ClusterView {
  ProfileId cluster_id = kInvalidProfileId;
  std::vector<ProfileId> members;
};

class ClusterIndex {
 public:
  ClusterIndex() = default;
  ClusterIndex(const ClusterIndex&) = delete;
  ClusterIndex& operator=(const ClusterIndex&) = delete;

  // Registers `serve.*` metrics (queries, unions, merges, cluster
  // gauges). Call once at construction time, before concurrent use.
  void InstrumentWith(obs::MetricsRegistry* registry);

  // Opts into retraction support: match edges are recorded so
  // RemoveProfile can re-resolve survivors. Must be called before the
  // first match is recorded (edges recorded only from then on).
  void EnableRetraction();
  bool retraction_enabled() const { return retraction_enabled_; }

  // Writer: grows the universe so ids [0, n) are tracked (as
  // singletons until matched). Called from the ingest path; safe
  // against concurrent readers and the AddMatch writer.
  void TrackUpTo(size_t n);

  // Writer: records that a and b refer to the same entity, merging
  // their clusters. Ids beyond the tracked universe are tracked first.
  // Returns true when the edge merged two previously distinct
  // clusters. Safe against concurrent readers; writers serialize.
  bool AddMatch(ProfileId a, ProfileId b);

  // Writer: folds a batch of match edges in one pass, amortizing the
  // writer mutex and seqlock version bumps across up to
  // kMaxUnionsPerWindow unions per write window (the sharded
  // pipeline's delivery step). Readers retry at most once per window
  // instead of once per edge, and windows stay short enough that the
  // serving p99 budget holds. Returns the number of edges that merged
  // two previously distinct clusters. Equivalent to calling AddMatch
  // per pair -- canonical cluster ids make the result order-invariant.
  size_t AddMatches(const std::pair<ProfileId, ProfileId>* pairs,
                    size_t count);

  // Writer: tombstones a deleted record. Its match edges are dropped
  // and the surviving members of its cluster are re-resolved over the
  // remaining edges (they may split into several clusters). Queries on
  // the id then report absence until ReviveAsSingleton. Requires
  // EnableRetraction; returns false when the id is untracked or
  // already removed.
  bool RemoveProfile(ProfileId id);

  // Writer: re-admits a previously removed id as a singleton (the
  // record was corrected and re-ingested). Requires EnableRetraction
  // and a currently removed id.
  void ReviveAsSingleton(ProfileId id);

  // Reader: true when `id` is tracked but was removed.
  bool IsDeleted(ProfileId id) const;

  // Reader: canonical cluster id (smallest member id) plus the member
  // list of the cluster containing `id`, sorted ascending. Never
  // blocks writers. A removed id reports absence: cluster_id ==
  // kInvalidProfileId and an empty member list.
  ClusterView ClusterOf(ProfileId id) const;

  // Reader: just the canonical cluster id (the cheap point query);
  // kInvalidProfileId for a removed id.
  ProfileId ClusterIdOf(ProfileId id) const;

  // Reader: member count of the cluster containing `id`; 0 for a
  // removed id.
  size_t ClusterSizeOf(ProfileId id) const;

  // Profiles tracked so far (monotone; readers see a published size).
  size_t universe_size() const {
    return size_.load(std::memory_order_acquire);
  }

  // Clusters with at least two members / merges performed so far.
  // Writer-consistent (read under the same seqlock as queries).
  size_t NumNonTrivialClusters() const;
  uint64_t merges() const { return merges_.load(std::memory_order_relaxed); }

  // Serializes the partition in canonical form: universe size followed
  // by every profile's canonical cluster id (kInvalidProfileId for
  // removed ids). With retraction enabled, the match-edge list follows
  // (sorted (a, b) pairs with a < b) so a restored index can keep
  // re-resolving removals. Same partition + edges, same bytes,
  // regardless of the merge order that produced it. Excludes
  // concurrent writers for the duration.
  void Snapshot(std::ostream& out) const;

  // Restores a Snapshot payload into this index, which must be empty
  // (universe_size() == 0). Returns false on a malformed payload
  // (decode failure, cluster id that is not the minimum of its
  // cluster) and leaves the index unusable for anything but
  // destruction in that case. Not thread-safe (restore precedes
  // concurrent use by contract, like every other component).
  bool Restore(std::istream& in);

  // Heap footprint estimate for the persist.state_bytes.* gauges.
  size_t ApproxMemoryBytes() const;

 private:
  // Upper bound on unions folded inside one seqlock write window by
  // AddMatches: large enough to amortize the version churn, small
  // enough that a concurrent reader's retry wait stays microseconds.
  static constexpr size_t kMaxUnionsPerWindow = 32;

  // parent_ sentinel for removed (tombstoned) ids. Distinct from
  // kInvalidProfileId (used in snapshots and query answers) so a dead
  // cell can never be mistaken for a live maximal id.
  static constexpr uint32_t kDeadParent = 0xfffffffeu;

  // Chunked array of atomic u32 cells with stable addresses: the chunk
  // directory is a fixed array of atomic pointers, so publishing a new
  // chunk never moves memory a reader may be traversing.
  class AtomicU32Chunks {
   public:
    static constexpr size_t kChunkShift = 16;  // 64Ki cells per chunk
    static constexpr size_t kChunkSize = size_t{1} << kChunkShift;
    static constexpr size_t kChunkMask = kChunkSize - 1;
    static constexpr size_t kMaxChunks = size_t{1} << 15;  // 2^31 cells

    AtomicU32Chunks()
        : chunks_(new std::atomic<std::atomic<uint32_t>*>[kMaxChunks]()) {}
    ~AtomicU32Chunks() {
      for (size_t i = 0; i < kMaxChunks; ++i) {
        std::atomic<uint32_t>* chunk =
            chunks_[i].load(std::memory_order_relaxed);
        if (chunk == nullptr) break;  // chunks are allocated densely
        delete[] chunk;
      }
    }
    AtomicU32Chunks(const AtomicU32Chunks&) = delete;
    AtomicU32Chunks& operator=(const AtomicU32Chunks&) = delete;

    // Writer: ensures cell `i` exists (allocating its chunk).
    void EnsureChunkFor(size_t i);

    uint32_t Load(size_t i, std::memory_order order) const {
      return chunks_[i >> kChunkShift]
          .load(std::memory_order_acquire)[i & kChunkMask]
          .load(order);
    }
    void Store(size_t i, uint32_t v, std::memory_order order) {
      chunks_[i >> kChunkShift]
          .load(std::memory_order_acquire)[i & kChunkMask]
          .store(v, order);
    }

    size_t allocated_chunks() const {
      return allocated_.load(std::memory_order_relaxed);
    }

   private:
    std::unique_ptr<std::atomic<std::atomic<uint32_t>*>[]> chunks_;
    std::atomic<size_t> allocated_{0};
  };

  // Writer-side find with path compression (holds mutex_, inside the
  // odd-version window, so compression stores are invisible to a
  // reader that will pass version validation).
  ProfileId FindRootCompress(ProfileId id);
  // One union step; caller holds writer_mutex_ inside an odd-version
  // window with both ids already tracked. Returns true on a merge.
  // With retraction enabled, also records the match edge and ignores
  // pairs with a removed endpoint.
  bool UnionLocked(ProfileId a, ProfileId b);
  // Reader-side find: pure walk, no mutation. Returns kDeadParent when
  // the walk hits a removed (or torn, mid-mutation) cell.
  ProfileId FindRootReadOnly(ProfileId id) const;
  // Grows to n tracked ids; caller holds mutex_.
  void TrackUpToLocked(size_t n);
  // Records an undirected match edge (dedup-checked); caller holds
  // writer_mutex_ and retraction is enabled.
  void RecordEdgeLocked(ProfileId a, ProfileId b);
  // Rewrites one cluster (flat parents to the min-id root, ascending
  // member cycle, root size/min); caller holds writer_mutex_ inside an
  // odd-version window. `members` must be sorted ascending.
  void WriteClusterLocked(const std::vector<ProfileId>& members);

  // Seqlock: odd while a writer mutates. Readers validate that the
  // version was even and unchanged around their walk.
  std::atomic<uint64_t> version_{0};
  mutable std::mutex writer_mutex_;

  AtomicU32Chunks parent_;  // parent_[i] == i at roots
  AtomicU32Chunks next_;    // circular successor within the cluster
  AtomicU32Chunks csize_;   // member count, valid at roots
  AtomicU32Chunks cmin_;    // smallest member id, valid at roots
  std::atomic<size_t> size_{0};

  std::atomic<uint64_t> merges_{0};
  size_t non_trivial_clusters_ = 0;  // guarded by writer_mutex_

  // Retraction state. edges_ is writer-side only (readers never touch
  // it), so plain vectors are fine; adjacency is symmetric.
  bool retraction_enabled_ = false;
  std::vector<std::vector<ProfileId>> edges_;  // guarded by writer_mutex_

  // `serve.*` metrics; all null when un-instrumented.
  obs::Counter* queries_metric_ = nullptr;
  obs::Counter* unions_metric_ = nullptr;
  obs::Counter* merges_metric_ = nullptr;
  obs::Counter* removals_metric_ = nullptr;
  obs::Counter* query_retries_metric_ = nullptr;
  obs::Histogram* query_ns_metric_ = nullptr;
  obs::Gauge* universe_metric_ = nullptr;
  obs::Gauge* clusters_metric_ = nullptr;
};

}  // namespace serve
}  // namespace pier

#endif  // PIER_SERVE_CLUSTER_INDEX_H_
