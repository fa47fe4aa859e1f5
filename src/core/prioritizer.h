// The Incremental Comparison Prioritization component (Section 3.2,
// Algorithm 1): the novel PIER pipeline stage that maintains a global
// index of the best unexecuted comparisons across *all* increments
// seen so far (the globality condition of Definition 3) and emits them
// best-first.
//
// Five strategies implement this interface:
//   I-PCS (comparison-centric, Section 4 / Algorithm 2)
//   I-PBS (block-centric,      Section 5 / Algorithm 3)
//   I-PES (entity-centric,     Section 6 / Algorithm 4)
// plus the frontier family (src/frontier/, DESIGN.md section 10):
//   SPER-SK (stochastic top-k sampling, after SPER)
//   FB-PCS  (verdict-feedback block boosting, after pBlocking)

#ifndef PIER_CORE_PRIORITIZER_H_
#define PIER_CORE_PRIORITIZER_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "blocking/block_collection.h"
#include "metablocking/weighting.h"
#include "model/comparison.h"
#include "model/profile_store.h"
#include "model/types.h"

namespace pier {

class PairFilter;

namespace obs {
class MetricsRegistry;
}  // namespace obs

// Work accounting returned by pipeline steps; consumed by the
// ModeledCostMeter to derive deterministic virtual-time costs.
struct WorkStats {
  uint64_t profiles = 0;
  uint64_t tokens = 0;
  uint64_t block_updates = 0;
  uint64_t comparisons_generated = 0;
  uint64_t index_ops = 0;

  WorkStats& operator+=(const WorkStats& other) {
    profiles += other.profiles;
    tokens += other.tokens;
    block_updates += other.block_updates;
    comparisons_generated += other.comparisons_generated;
    index_ops += other.index_ops;
    return *this;
  }
};

struct PrioritizerOptions {
  // Block-ghosting parameter (Algorithm 2): keep blocks of size
  // <= |b_min| / beta; beta in (0, 1].
  double beta = 0.5;

  // Capacity of the main bounded CmpIndex (I-PCS, I-PBS).
  size_t cmp_index_capacity = 1u << 18;

  // I-PES: per-entity priority queue bound |E_PQ(e)|.
  size_t per_entity_capacity = 64;
  // I-PES: EntityQueue bound.
  size_t entity_queue_capacity = 1u << 18;
  // I-PES: bound of the low-weight overflow queue PQ.
  size_t low_weight_queue_capacity = 1u << 17;

  WeightingScheme scheme = WeightingScheme::kCbs;

  // SPER-SK's RNG seed (src/frontier/sper_sk.h). The determinism
  // contract: same seed + same increment sequence => byte-identical
  // dequeue stream at every execution thread count. The seed shapes the
  // emitted comparison stream, so it joins the pipeline options
  // fingerprint.
  uint64_t frontier_seed = 42;
};

// Shared state every prioritizer consults. The pointed-to objects are
// owned by the pipeline and outlive the prioritizer.
struct PrioritizerContext {
  const BlockCollection* blocks = nullptr;
  const ProfileStore* profiles = nullptr;
  // Optional sink for the frontier strategies' `frontier.*` metrics
  // (the pipeline's PierOptions::metrics); non-owning.
  obs::MetricsRegistry* metrics = nullptr;
};

class IncrementalPrioritizer {
 public:
  virtual ~IncrementalPrioritizer() = default;

  // Algorithm 1, line 1: folds the (already blocked) increment into
  // the global CmpIndex. `delta` holds the increment's profile ids and
  // is empty for the periodic ticks the blocking step emits while the
  // stream is idle (Section 3.2), which trigger the consideration of
  // further pairs from older data.
  virtual WorkStats UpdateCmpIndex(const std::vector<ProfileId>& delta) = 0;

  // Retrieves and removes the globally best remaining comparison.
  // Returns false when the index is depleted.
  virtual bool Dequeue(Comparison* out) = 0;

  virtual bool Empty() const = 0;

  // Called once when the stream has delivered its last increment;
  // strategies with a block scanner lift its rescan throttle so the
  // tail pass covers every block at its final size.
  virtual void OnStreamEnd() {}

  // Mutable streams: profile `id` is being deleted (or replaced). The
  // call arrives *before* the profile store / block collection mutate,
  // so the profile's tokens are still readable through the context.
  // Strategies drop every pending comparison with `id` as an endpoint
  // and forget any pair-filter entries involving it, so a corrected
  // profile's pairs can be rescheduled. The base implementation is a
  // no-op for lightweight test doubles; stale entries that survive a
  // no-op are caught by the pipeline's emit-time liveness check.
  virtual void OnRetract(ProfileId id) { (void)id; }

  // Verdict feedback: called once per executed comparison with the
  // matcher's classification (positives *and* negatives, unlike the
  // cluster index's RecordMatch). Feedback strategies (FB-PCS) fold
  // the outcome into their block/edge scores; everything else ignores
  // it. Arrives after the comparison was emitted, so implementations
  // must tolerate endpoints that have since been retracted.
  virtual void RecordVerdict(ProfileId a, ProfileId b, bool is_match) {
    (void)a;
    (void)b;
    (void)is_match;
  }

  // The filter that already keeps this strategy's emitted pairs
  // unique, or null. A strategy that returns one never emits a pair
  // twice unless an endpoint was retracted in between; the pipeline
  // then runs no executed filter of its own behind it and reports this
  // filter in its `persist.state_bytes.filter` gauge. I-PBS returns its
  // comparison filter CF; every other strategy keeps the default.
  virtual const PairFilter* UniquePairFilter() const { return nullptr; }

  // True while every pair Dequeue returns is one the strategy never
  // returned before, unless an endpoint was retracted in between
  // (OnRetract purges the pair from every queue, and the pipeline
  // withdraws it from its filter). The pipeline then logs emitted pairs
  // into its executed filter (PairFilter::Record) instead of testing
  // them, and re-reads the hook after every UpdateCmpIndex it runs.
  // Once false it must stay false. I-PCS and I-PES hold it until their
  // block scanner first scans a block: before that, each pair is
  // generated once, when its later endpoint arrives
  // (only_older_neighbors), and sits in exactly one queue.
  virtual bool EmitsOnlyNewPairs() const { return false; }

  // Checkpoint support (see src/persist/): serializes the strategy's
  // complete internal state (queues, per-token indexes, filters,
  // scanner progress) so a restored prioritizer emits the exact
  // dequeue sequence the uninterrupted one would. The base
  // implementations are no-ops so lightweight test doubles keep
  // working; all three shipped strategies override both.
  virtual void Snapshot(std::ostream& out) const { (void)out; }
  virtual bool Restore(std::istream& in) {
    (void)in;
    return false;
  }
};

}  // namespace pier

#endif  // PIER_CORE_PRIORITIZER_H_
