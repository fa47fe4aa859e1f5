// The set of comparison pairs a component has already seen: the
// paper's I-PBS comparison filter CF (Algorithm 3) and PIER's
// executed-comparison filter are both this one structure. It answers
// test-and-add on pairs and, for mutable streams, retracts every pair
// of a deleted profile so a corrected profile's comparisons pass again.
//
// The mode is fixed at construction from two flags:
//
//   mode      exact  retractable  keys                 used by
//   --------  -----  -----------  -------------------  ------------------
//   Bloom     no     no           ScalableBloomFilter  default pipeline,
//                                                      combiner, I-PBS CF
//   exact     yes    no           exact hash set       exact_executed_filter
//   registry  any    yes          PairRegistry         mutable_stream
//
// Each pair path runs exactly one of these. PierPipeline's executed
// filter and the ShardedPipeline combiner's delivered filter (engaged
// at N>1 shards) take `exact` from PierOptions::exact_executed_filter.
// I-PBS's CF admits each pair into its CmpIndex at most once, so it is
// the only filter on the I-PBS path: the pipeline builds no executed
// filter behind it (IncrementalPrioritizer::UniquePairFilter), and CF
// always passes exact = false. `retractable` is
// PierOptions::mutable_stream everywhere. A retractable filter must
// keep every pair's endpoints to withdraw them, and that record --
// the PairRegistry -- answers membership exactly, so it is the whole
// filter: no Bloom keys sit beside it. Only the active structure is
// allocated.
//
// Recall contract: the Bloom mode may report a never-seen pair as seen
// (a false positive, bounded by the scalable filter's compound rate),
// which drops a pair that was never compared; the exact and registry
// modes never do, so mutable paths lose no pair to the filter. The
// exact set grows without bound; the registry grows with the live
// pairs and shrinks on retraction.

#ifndef PIER_MODEL_PAIR_FILTER_H_
#define PIER_MODEL_PAIR_FILTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <unordered_set>
#include <variant>
#include <vector>

#include "model/types.h"
#include "util/hashing.h"
#include "util/scalable_bloom_filter.h"

namespace pier {

// The retractable filter: every recorded pair under both endpoints,
// in a table of partner lists indexed by profile id (ids are dense;
// ProfileStore indexes by them too): one list header per id up to the
// largest recorded one, no hash nodes. Membership scans the shorter of
// the two endpoints' lists; retraction hands back (and forgets) a
// profile's partner list.
//
// Each pair must be recorded at most once (PairFilter records only
// pairs Contains reports absent), so Take removes each pair exactly
// once and num_pairs stays exact.
class PairRegistry {
 public:
  void Add(ProfileId x, ProfileId y) {
    const ProfileId hi = x < y ? y : x;
    if (hi >= partners_.size()) partners_.resize(size_t{hi} + 1);
    partners_[x].push_back(y);
    partners_[y].push_back(x);
    ++num_pairs_;
  }

  // True when the pair (x, y) is recorded, in either order. Costs a
  // scan of the shorter partner list.
  bool Contains(ProfileId x, ProfileId y) const {
    if ((x < y ? y : x) >= partners_.size()) return false;
    const std::vector<ProfileId>& xs = partners_[x];
    const std::vector<ProfileId>& ys = partners_[y];
    const bool scan_x = xs.size() <= ys.size();
    const std::vector<ProfileId>& list = scan_x ? xs : ys;
    const ProfileId partner = scan_x ? y : x;
    return std::find(list.begin(), list.end(), partner) != list.end();
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

  // Returns true if the pair was (possibly, in the Bloom mode) seen
  // before; otherwise records it and returns false. Every emitted
  // comparison of every strategy passes through here, hence inline
  // with a mode switch rather than a virtual call.
  bool TestAndAdd(ProfileId x, ProfileId y) {
    switch (keys_.index()) {
      case kBloom:
        return std::get_if<kBloom>(&keys_)->TestAndAdd(PairKey(x, y));
      case kExact:
        return !std::get_if<kExact>(&keys_)->insert(PairKey(x, y)).second;
      default: {
        PairRegistry& registry = *std::get_if<kRegistry>(&keys_);
        if (registry.Contains(x, y)) return true;
        registry.Add(x, y);
        return false;
      }
    }
  }

  // Withdraws every recorded pair with endpoint `id`, so those pairs
  // test as unseen again; returns the number of pairs withdrawn. A
  // no-op returning 0 unless the filter is retractable.
  size_t Retract(ProfileId id);

  // Serializes the active structure: the Bloom filter, the exact set as
  // ascending keys, or the registry (both canonical). The format is
  // selected by the mode, which the owner's options fingerprint pins.
  void Snapshot(std::ostream& out) const;

  // Replaces the state from a Snapshot payload written in this mode.
  // Returns false on any decode failure, leaving the filter unchanged.
  bool Restore(std::istream& in);

  // Heap bytes of the active structure.
  size_t ApproxMemoryBytes() const;

 private:
  using ExactSet = std::unordered_set<uint64_t>;
  enum Mode : size_t { kBloom = 0, kExact = 1, kRegistry = 2 };

  // Alternative index == Mode.
  using Keys = std::variant<ScalableBloomFilter, ExactSet, PairRegistry>;

  Keys keys_;
};

}  // namespace pier

#endif  // PIER_MODEL_PAIR_FILTER_H_
