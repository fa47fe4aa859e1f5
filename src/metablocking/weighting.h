// Meta-blocking weighting schemes (Papadakis et al., TKDE 2013 [25]):
// estimate the match likelihood of a pair from block co-occurrence
// statistics alone, with no schema knowledge.
//
// The paper's algorithms use CBS (Common Blocks Scheme) because it is
// the cheapest to maintain incrementally; we additionally provide
// ECBS, JS, and ARCS as drop-in alternatives (exercised by the
// weighting-scheme ablation bench).

#ifndef PIER_METABLOCKING_WEIGHTING_H_
#define PIER_METABLOCKING_WEIGHTING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "blocking/block_collection.h"
#include "model/comparison.h"
#include "model/entity_profile.h"
#include "model/profile_store.h"
#include "model/types.h"

namespace pier {

enum class WeightingScheme : uint8_t {
  // CBS: number of blocks the two profiles share.
  kCbs = 0,
  // ECBS: CBS discounted by how prolific each profile is,
  // CBS * log(B / |B_x|) * log(B / |B_y|).
  kEcbs = 1,
  // JS: Jaccard of the two profiles' block sets,
  // CBS / (|B_x| + |B_y| - CBS).
  kJs = 2,
  // ARCS: sum over common blocks of 1 / ||b|| (reciprocal of the
  // block's comparison cardinality); favours small blocks.
  kArcs = 3,
};

const char* ToString(WeightingScheme scheme);

struct WeightingContext {
  const BlockCollection* blocks = nullptr;
  const ProfileStore* profiles = nullptr;
  WeightingScheme scheme = WeightingScheme::kCbs;
};

// Reusable allocation-free accumulator for one profile's neighbourhood
// statistics -- the weighting hot path every prioritizer and baseline
// funnels through (DESIGN.md, "Weighting kernel"). The counter slots
// are dense arrays indexed by ProfileId and carry an epoch stamp: a
// slot is live only while its stamp equals the current pass epoch, so
// BeginPass clears the whole scratch in O(1) without touching the
// arrays (the sparse-reset "timestamp trick"). The touched-id list
// replays the pass's neighbours in deterministic first-touch order.
// One scratch per owning thread; the class itself is not thread-safe.
class WeightingScratch {
 public:
  // Readies the scratch for one pass over profile ids in
  // [0, num_profiles). Grows the slot arrays as the store grows;
  // no allocation once sized (amortized O(1) across a stream).
  void BeginPass(size_t num_profiles) {
    if (epoch_.size() < num_profiles) {
      epoch_.resize(num_profiles, 0);
      cbs_.resize(num_profiles, 0);
      arcs_.resize(num_profiles, 0.0);
    }
    if (++current_epoch_ == 0) {  // stamp wrapped: one hard reset
      std::fill(epoch_.begin(), epoch_.end(), 0u);
      current_epoch_ = 1;
    }
    touched_.clear();
  }

  // Records one block co-occurrence with neighbour y.
  void Accumulate(ProfileId y) {
    if (epoch_[y] != current_epoch_) {
      epoch_[y] = current_epoch_;
      cbs_[y] = 1;
      touched_.push_back(y);
    } else {
      ++cbs_[y];
    }
  }

  // Records one co-occurrence that also carries an ARCS share.
  void AccumulateArcs(ProfileId y, double arcs_share) {
    if (epoch_[y] != current_epoch_) {
      epoch_[y] = current_epoch_;
      cbs_[y] = 1;
      arcs_[y] = arcs_share;
      touched_.push_back(y);
    } else {
      ++cbs_[y];
      arcs_[y] += arcs_share;
    }
  }

  // The current pass's neighbours, in first-touch order.
  const std::vector<ProfileId>& touched() const { return touched_; }
  uint32_t cbs(ProfileId y) const { return cbs_[y]; }
  double arcs(ProfileId y) const { return arcs_[y]; }

  size_t capacity() const { return epoch_.size(); }

 private:
  std::vector<uint32_t> epoch_;
  std::vector<uint32_t> cbs_;
  std::vector<double> arcs_;
  std::vector<ProfileId> touched_;
  uint32_t current_epoch_ = 0;
};

// Generates the weighted comparison candidates of profile `x` against
// every co-blocked neighbour found in `retained_blocks` (typically the
// ghosted B_x). For Clean-Clean collections only cross-source
// neighbours are considered.
//
// With only_older_neighbors = true, only neighbours with id < x.id are
// generated; because ids are dense in arrival order and a profile is
// added to the block collection before its comparisons are generated,
// this yields every new pair exactly once per increment with no
// dedup structure (Section 3.2).
// `visits`, when non-null, is incremented by the number of raw block-
// member iterations performed -- the dominant cost on large blocks and
// the quantity a cost model must charge for (edge counts alone
// underestimate the work).
//
// `scratch` is the caller-owned accumulator; long-lived callers
// (prioritizers, baselines, the graph builder) pass their own so the
// kernel performs no per-call allocation beyond the returned vector.
// When null, a thread-local scratch is used.
std::vector<Comparison> GenerateWeightedComparisons(
    const WeightingContext& ctx, const EntityProfile& x,
    const std::vector<TokenId>& retained_blocks,
    bool only_older_neighbors = true, uint64_t* visits = nullptr,
    WeightingScratch* scratch = nullptr);

// Core of the kernel: appends x's weighted comparisons to `*out`
// instead of returning a fresh vector (what BlockingGraph::Build uses
// to fill per-chunk edge lists with no per-profile vector).
void AppendWeightedComparisons(const WeightingContext& ctx,
                               const EntityProfile& x,
                               const std::vector<TokenId>& retained_blocks,
                               bool only_older_neighbors, uint64_t* visits,
                               WeightingScratch& scratch,
                               std::vector<Comparison>* out);

// CBS weight of an explicit pair: the number of common tokens (each
// distinct token is one block under token blocking). Used by I-PBS
// (Algorithm 3, line 13) and by the fallback block scanner.
double PairCbsWeight(const EntityProfile& a, const EntityProfile& b);

}  // namespace pier

#endif  // PIER_METABLOCKING_WEIGHTING_H_
