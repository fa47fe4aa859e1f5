// I-PES: Incremental Progressive Entity Scheduling (Section 6,
// Algorithm 4) -- the paper's best-performing PIER algorithm.
//
// Entity-centric prioritization without a meta-blocking graph: each
// entity e owns a small bounded priority queue E_PQ(e) of its best
// comparisons; an EntityQueue ranks entities by the weight of their
// best comparison at insertion time; a global bounded queue PQ catches
// low-weight comparisons. A *double pruning* keeps memory bounded and
// discards superfluous comparisons: a comparison that does not improve
// either endpoint's best must beat both the global mean weight
// (Total/Count) and its endpoint's per-entity mean to enter an E_PQ.
//
// Dequeue order: best entity first (its best comparison), refilling
// the EntityQueue from E_PQ when it drains, then falling back to PQ --
// making the strategy robust to a weighting scheme that misranks
// individual comparisons (the I-PCS failure mode with expensive
// matchers).
//
// EntityQueue layout (util/sorted_run_queue.h): refs sorted by
// (weight, id) descending and popped from the front, plus a small heap
// of refs pushed since the last merge; entity_queue_capacity is
// applied by trimming the lowest refs before each pop. A refill sorts
// every tracked entity's ref once. Snapshots store the refs in pop
// order.

#ifndef PIER_CORE_I_PES_H_
#define PIER_CORE_I_PES_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/block_scanner.h"
#include "core/prioritizer.h"
#include "model/comparison.h"
#include "util/bounded_priority_queue.h"
#include "util/sorted_run_queue.h"

namespace pier {

class IPes : public IncrementalPrioritizer {
 public:
  IPes(PrioritizerContext ctx, PrioritizerOptions options);

  WorkStats UpdateCmpIndex(const std::vector<ProfileId>& delta) override;
  bool Dequeue(Comparison* out) override;
  bool Empty() const override {
    return nonempty_entities_ == 0 && low_queue_.empty();
  }
  void OnStreamEnd() override { scanner_.AllowFullRescan(); }
  void OnRetract(ProfileId id) override;
  bool EmitsOnlyNewPairs() const override { return !scanner_.ScannedAny(); }
  void Snapshot(std::ostream& out) const override;
  bool Restore(std::istream& in) override;

  // Exposed for tests / diagnostics.
  size_t NumTrackedEntities() const { return tracked_ids_.size(); }
  size_t NumEntityQueueRefills() const { return num_refills_; }
  double GlobalMeanWeight() const {
    return count_ == 0 ? 0.0 : total_ / static_cast<double>(count_);
  }

 private:
  // Reference into the EntityQueue: entity id plus the weight of its
  // best comparison at enqueue time (may be stale; stale refs are
  // skipped at dequeue).
  struct EntityRef {
    ProfileId id = kInvalidProfileId;
    double weight = 0.0;
  };
  struct EntityRefLess {
    bool operator()(const EntityRef& a, const EntityRef& b) const {
      if (a.weight != b.weight) return a.weight < b.weight;
      return a.id > b.id;
    }
  };

  struct EntityEntry {
    BoundedPriorityQueue<Comparison, CompareByWeight> pq;
    // Running mean of the weights inserted into this entity's queue,
    // for the insert() pruning condition (Algorithm 4, line 12).
    double inserted_total = 0.0;
    uint64_t inserted_count = 0;

    explicit EntityEntry(size_t capacity) : pq(capacity) {}
  };

  // Algorithm 4, lines 1-14 for one weighted comparison.
  void Insert(const Comparison& c, WorkStats* stats);

  // Pushes c into entity e's queue, maintaining the nonempty-entity
  // counter and per-entity running means.
  void PushToEntity(ProfileId e, const Comparison& c);
  void PushToEntry(EntityEntry& entry, const Comparison& c);

  // Re-seeds the EntityQueue with every entity that still holds
  // comparisons ("if the EntityQueue becomes empty, for each entry e
  // in E_PQ we add <e, top.weight>"); prunes drained entries.
  void RefillEntityQueue();

  // E_PQ as a sparse set over dense profile ids: entity_pos_[id] is
  // the entity's index into the parallel tracked_ids_/tracked_ arrays
  // (kNoEntry if untracked); erase swaps with the last entry. Every
  // per-comparison lookup is one array index instead of a hash probe
  // -- at paper scale the hash map was ~20% of ingest time.
  static constexpr uint32_t kNoEntry = 0xffffffffu;
  EntityEntry* FindEntity(ProfileId e);
  const EntityEntry* FindEntity(ProfileId e) const;
  EntityEntry& EnsureEntity(ProfileId e);
  void EraseEntity(ProfileId e);

  PrioritizerContext ctx_;
  PrioritizerOptions options_;

  std::vector<uint32_t> entity_pos_;   // profile id -> tracked_ index
  std::vector<ProfileId> tracked_ids_;
  std::vector<EntityEntry> tracked_;
  SortedRunQueue<EntityRef, EntityRefLess> entity_queue_;
  BoundedPriorityQueue<Comparison, CompareByWeight> low_queue_;  // PQ

  double total_ = 0.0;     // Total: sum of all inserted weights
  uint64_t count_ = 0;     // Count: number of inserted comparisons
  size_t nonempty_entities_ = 0;
  size_t num_refills_ = 0;

  BlockScanner scanner_;
  WeightingScratch scratch_;  // reused across increments
  std::vector<TokenId> retained_;  // reused ghosting output buffer
  std::vector<Comparison> candidates_;  // reused I-WNP buffer
};

}  // namespace pier

#endif  // PIER_CORE_I_PES_H_
