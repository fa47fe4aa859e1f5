// Scalable Bloom filter (Almeida et al., 2007): a sequence of Bloom
// filter slices with geometrically growing capacity and geometrically
// tightening error probability, so the compound false-positive rate
// stays bounded no matter how many keys are inserted.
//
// One template serves both slice types: ScalableBloomFilter over the
// append-only split-block BloomFilter, and ScalableCountingBloomFilter
// (util/counting_bloom_filter.h) over the 2-bit CountingBloomFilter,
// which adds Remove. The PIER framework uses the append-only one
// through PairFilter (model/pair_filter.h) as the comparison filter CF
// of I-PBS (Algorithm 3) and as the executed-comparison filter of
// append-only streams (mutable streams use PairFilter's exact pair
// registry, which retraction needs anyway): on an unbounded
// stream the set of executed comparisons grows without limit, so an
// exact hash set would exhaust memory while this filter keeps a small,
// bounded-error footprint.
//
// A Slice provides: Slice(expected_items, fp_rate), Add, MayContain,
// AtCapacity, num_insertions, expected_items, MemoryBytes, Snapshot,
// FromSnapshot, SizedFor(expected_items, fp_rate), and the static
// WriteFormatPrefix/ReadFormatPrefix pair that frames the scalable
// snapshot. Slices with Remove/num_removals make the wrapper
// deletable.

#ifndef PIER_UTIL_SCALABLE_BLOOM_FILTER_H_
#define PIER_UTIL_SCALABLE_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "util/bloom_filter.h"

namespace pier {

struct ScalableFilterOptions {
  // Capacity of the first slice.
  size_t initial_capacity = 4096;
  // Compound false-positive probability target.
  double fp_rate = 0.01;
  // Capacity growth factor between consecutive slices.
  double growth = 2.0;
  // Error-tightening ratio r: slice i gets error p0 * r^i with
  // p0 = fp_rate * (1 - r).
  double tightening = 0.9;
};

template <typename Slice>
class ScalableFilter {
 public:
  using Options = ScalableFilterOptions;
  static constexpr bool kDeletable = requires(Slice& s, uint64_t key) {
    s.Remove(key);
  };

  ScalableFilter() : ScalableFilter(Options()) {}
  explicit ScalableFilter(const Options& options);

  // Adds a key (always to the most recent slice, growing a new slice
  // when the current one reaches its design capacity).
  void Add(uint64_t key);

  // True if the key may have been added (checks newest slice first,
  // as recent keys are the most frequently re-queried in streaming
  // deduplication workloads).
  bool MayContain(uint64_t key) const;

  // Returns true if the key was (possibly) already present; otherwise
  // inserts it and returns false -- the "have we executed this
  // comparison?" check-then-mark.
  bool TestAndAdd(uint64_t key);

  // Removes the key from the newest slice that may contain it. A key
  // was inserted into exactly one slice (the slice current at insert
  // time), so exactly one is decremented: decrementing every claiming
  // slice would let a false-positive hit in a sibling slice clear
  // cells owned by live keys -- a false negative. When the picked
  // slice is itself a false positive (probability bounded by the
  // tightened per-slice error rates), the true slice keeps the key and
  // it merely lingers, the safe direction. Returns true if a slice was
  // decremented. Callers must pair each Remove with a prior actual
  // insert (see counting_bloom_filter.h).
  bool Remove(uint64_t key)
    requires kDeletable
  {
    for (auto it = slices_.rbegin(); it != slices_.rend(); ++it) {
      if ((*it)->Remove(key)) {
        ++num_removals_;
        return true;
      }
    }
    return false;
  }

  size_t num_slices() const { return slices_.size(); }
  size_t num_insertions() const { return num_insertions_; }
  size_t num_removals() const
    requires kDeletable
  {
    return num_removals_;
  }
  size_t MemoryBytes() const;

  // Heap footprint estimate: slice arrays plus the slice vector and
  // slice objects (exported as a persist.state_bytes gauge).
  size_t ApproxMemoryBytes() const;

  // Serializes the slice type's format prefix, options, insertion (and
  // for deletable filters, removal) counts, and every slice.
  void Snapshot(std::ostream& out) const;

  // Replaces this filter's entire state from a Snapshot payload
  // (including the options, which are validated against the
  // constructor's ranges, and every slice's sizing and insertion
  // bookkeeping against the growth schedule). Returns false on any
  // failure, leaving the filter unchanged.
  bool Restore(std::istream& in);

 private:
  void AddSlice();

  Options options_;
  std::vector<std::unique_ptr<Slice>> slices_;
  size_t num_insertions_ = 0;
  size_t num_removals_ = 0;  // stays 0 unless kDeletable
};

extern template class ScalableFilter<BloomFilter>;
using ScalableBloomFilter = ScalableFilter<BloomFilter>;

}  // namespace pier

#endif  // PIER_UTIL_SCALABLE_BLOOM_FILTER_H_
