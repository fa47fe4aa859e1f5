// The set of comparison pairs a component has already seen: the
// paper's I-PBS comparison filter CF (Algorithm 3) and PIER's
// executed-comparison filter are both this one structure. It answers
// test-and-add on pair keys PairKey(x, y) and, for mutable streams,
// retracts every pair of a deleted profile so a corrected profile's
// comparisons pass again.
//
// The mode is fixed at construction from two flags:
//
//   exact  retractable  keys                          used by
//   -----  -----------  ----------------------------  ------------------
//   no     no           ScalableBloomFilter           default pipeline,
//                                                     combiner, I-PBS CF
//   no     yes          ScalableCountingBloomFilter   mutable_stream
//                       + PairRegistry
//   yes    no           exact hash set                exact_executed_filter
//   yes    yes          exact hash set + PairRegistry both flags
//
// Each pair path runs exactly one of these. PierPipeline's executed
// filter and the ShardedPipeline combiner's delivered filter (engaged
// at N>1 shards) take `exact` from PierOptions::exact_executed_filter.
// I-PBS's CF admits each pair into its CmpIndex at most once, so it is
// the only filter on the I-PBS path: the pipeline builds no executed
// filter behind it (IncrementalPrioritizer::UniquePairFilter), and CF
// always passes exact = false. `retractable` is
// PierOptions::mutable_stream everywhere; its PairRegistry is a table
// indexed by profile id. Only the active key structure is allocated.
// The Bloom modes may report a never-seen pair as seen (a false
// positive, bounded by the scalable filter's compound rate); the exact
// modes never do but grow without bound.

#ifndef PIER_MODEL_PAIR_FILTER_H_
#define PIER_MODEL_PAIR_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <unordered_set>
#include <variant>
#include <vector>

#include "model/types.h"
#include "util/counting_bloom_filter.h"
#include "util/hashing.h"
#include "util/scalable_bloom_filter.h"

namespace pier {

// Retraction index for the retractable modes: Bloom-style filters are
// keyed by PairKey(x, y), so deleting profile x requires knowing every
// partner y it was paired with to remove those keys again. This
// registry records each pair under both endpoints and hands back (and
// forgets) a profile's partner list on retraction.
//
// Profile ids are dense (ProfileStore indexes by them too), so the
// partner lists live in a table indexed by id: one list header per id
// up to the largest recorded one, no hash nodes.
//
// Each pair must be recorded exactly once (PairFilter records only
// when the underlying insert actually happened), so Take removes each
// key exactly once -- double removal would corrupt a counting filter's
// cells.
class PairRegistry {
 public:
  void Add(ProfileId x, ProfileId y) {
    const ProfileId hi = x < y ? y : x;
    if (hi >= partners_.size()) partners_.resize(size_t{hi} + 1);
    partners_[x].push_back(y);
    partners_[y].push_back(x);
    ++num_pairs_;
  }

  // Returns `id`'s partners and erases the pair records in both
  // directions. Subsequent Take of a partner no longer reports `id`.
  std::vector<ProfileId> Take(ProfileId id);

  uint64_t num_pairs() const { return num_pairs_; }
  bool empty() const { return num_pairs_ == 0; }

  size_t ApproxMemoryBytes() const;

  // Canonical serialization: ids with partners ascending, partner lists
  // ascending (the in-memory order is immaterial to semantics).
  void Snapshot(std::ostream& out) const;

  // Restores a Snapshot payload into this registry, which must be
  // empty. Returns false on decode failure or asymmetric content.
  bool Restore(std::istream& in);

 private:
  // partners_[id]: the partners recorded for `id` (empty: none).
  std::vector<std::vector<ProfileId>> partners_;
  uint64_t num_pairs_ = 0;
};

class PairFilter {
 public:
  PairFilter(bool exact, bool retractable);

  // Returns true if the pair was (possibly) seen before; otherwise
  // records it and returns false. Every emitted comparison of every
  // strategy passes through here, hence inline with a mode switch
  // rather than a virtual call.
  bool TestAndAdd(ProfileId x, ProfileId y) {
    const uint64_t key = PairKey(x, y);
    bool seen;
    switch (keys_.index()) {
      case kBloom:
        return std::get_if<kBloom>(&keys_)->TestAndAdd(key);
      case kCounting:
        seen = std::get_if<kCounting>(&keys_)->TestAndAdd(key);
        break;
      default:
        seen = !std::get_if<kExact>(&keys_)->insert(key).second;
        break;
    }
    // Record the pair exactly once per actual insert so Retract
    // withdraws each key once (counting cells tolerate exactly one
    // matching Remove).
    if (!seen && retractable_) pairs_.Add(x, y);
    return seen;
  }

  // Withdraws every recorded pair with endpoint `id`, so those pairs
  // test as unseen again; returns the number of keys withdrawn. A
  // no-op returning 0 unless the filter is retractable.
  size_t Retract(ProfileId id);

  // Serializes the active key structure (the exact set as ascending
  // keys, for canonical bytes), then the registry when retractable.
  // The format is selected by the mode, which the owner's options
  // fingerprint pins.
  void Snapshot(std::ostream& out) const;

  // Replaces the state from a Snapshot payload written in this mode.
  // Returns false on any decode failure, leaving the filter unchanged.
  bool Restore(std::istream& in);

  // Heap bytes of the active key structure plus the registry.
  size_t ApproxMemoryBytes() const;

 private:
  using ExactSet = std::unordered_set<uint64_t>;
  enum Mode : size_t { kBloom = 0, kCounting = 1, kExact = 2 };

  // Alternative index == Mode.
  using Keys =
      std::variant<ScalableBloomFilter, ScalableCountingBloomFilter, ExactSet>;

  Keys keys_;
  bool retractable_;
  PairRegistry pairs_;
};

}  // namespace pier

#endif  // PIER_MODEL_PAIR_FILTER_H_
