// The set of comparison pairs a component has already seen: the
// paper's I-PBS comparison filter CF (Algorithm 3), PIER's
// executed-comparison filter and the sharded delivery step's filter
// are all this one structure, on append-only and mutable streams
// alike. It answers test-and-add on pairs and, for mutable
// streams, retracts every pair of a deleted profile so a corrected
// profile's comparisons pass again.
//
// Each pair path runs exactly one filter. I-PBS's CF admits each pair
// into its CmpIndex at most once, so it is the only filter on the
// I-PBS path: the pipeline builds no executed filter behind it
// (IncrementalPrioritizer::UniquePairFilter).
//
// The filter is the pair registry: every recorded pair under both
// endpoints, in a table of partner lists indexed by profile id (ids
// are dense; ProfileStore indexes by them too): one list header per id
// up to the largest recorded one, no hash nodes. Membership scans the
// shorter of the two endpoints' lists; retraction forgets a profile's
// partner list and its entry in each partner's list.
//
// Recall contract: the filter is exact. It never reports a never-seen
// pair as seen, so no pair path loses a comparison to it. It grows
// with the recorded pairs and shrinks on retraction.

#ifndef PIER_MODEL_PAIR_FILTER_H_
#define PIER_MODEL_PAIR_FILTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "model/types.h"

namespace pier {

class PairFilter {
 public:
  // Returns true if the pair (x, y), in either order, was recorded and
  // not retracted since; otherwise records it and returns false. Every
  // emitted comparison of every strategy passes through here, hence
  // inline. Each pair is recorded at most once, so Retract withdraws
  // each pair exactly once and num_pairs stays exact.
  bool TestAndAdd(ProfileId x, ProfileId y) {
    if (Contains(x, y)) return true;
    const ProfileId hi = x < y ? y : x;
    if (hi >= partners_.size()) partners_.resize(size_t{hi} + 1);
    partners_[x].push_back(y);
    partners_[y].push_back(x);
    ++num_pairs_;
    return false;
  }

  // Withdraws every recorded pair with endpoint `id`, in both
  // directions, so those pairs test as unseen again; returns the number
  // of pairs withdrawn.
  size_t Retract(ProfileId id);

  uint64_t num_pairs() const { return num_pairs_; }
  bool empty() const { return num_pairs_ == 0; }

  // Canonical serialization: ids with partners ascending, partner lists
  // ascending (the in-memory order is immaterial to semantics).
  void Snapshot(std::ostream& out) const;

  // Replaces the state from a Snapshot payload. Returns false on any
  // decode failure or asymmetric content, leaving the filter unchanged.
  bool Restore(std::istream& in);

  // Heap bytes of the partner table and lists.
  size_t ApproxMemoryBytes() const;

 private:
  // Costs a scan of the shorter partner list.
  bool Contains(ProfileId x, ProfileId y) const {
    if ((x < y ? y : x) >= partners_.size()) return false;
    const std::vector<ProfileId>& xs = partners_[x];
    const std::vector<ProfileId>& ys = partners_[y];
    const bool scan_x = xs.size() <= ys.size();
    const std::vector<ProfileId>& list = scan_x ? xs : ys;
    const ProfileId partner = scan_x ? y : x;
    return std::find(list.begin(), list.end(), partner) != list.end();
  }

  // partners_[id]: the partners recorded for `id` (empty: none).
  std::vector<std::vector<ProfileId>> partners_;
  uint64_t num_pairs_ = 0;
};

}  // namespace pier

#endif  // PIER_MODEL_PAIR_FILTER_H_
