// Deletable set membership for mutable streams: the 2-bit counting
// slice of the scalable filter template (scalable_bloom_filter.h),
// stored as saturating counters instead of single bits so keys can be
// removed again. ScalableCountingBloomFilter is that template over
// this slice.
//
// No pipeline pair path uses it: PairFilter (model/pair_filter.h)
// answers membership from its exact pair registry instead. It stays as
// the baseline of bench_mutable_stream's counting-filter gates and for
// pierbench's util.filter replay.
//
// Counter layout: 2 bits per cell (32 cells per uint64_t word), cell
// count and hash count derived from (expected_items, fp_rate) like a
// flat Bloom filter's bit and hash counts, with k double-hashed probes
// mapped by modulo. A counter that reaches 3 saturates and becomes
// sticky: it is never decremented again, which preserves the
// no-false-negatives guarantee for keys still present at the cost of
// the filter slowly densifying under heavy churn (the fraction of
// cells reaching 3 is small at design load). Removing a key that was
// never added can clear cells shared with live keys -- the standard
// counting-filter caveat -- so callers must pair each Remove with a
// prior Add.

#ifndef PIER_UTIL_COUNTING_BLOOM_FILTER_H_
#define PIER_UTIL_COUNTING_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "util/scalable_bloom_filter.h"

namespace pier {

class CountingBloomFilter {
 public:
  // Sizes the filter for `expected_items` insertions at false-positive
  // probability `fp_rate`.
  CountingBloomFilter(size_t expected_items, double fp_rate);

  void Add(uint64_t key);

  // Decrements the key's cells (skipping saturated ones). Returns
  // false without touching any cell when the key is definitely absent.
  bool Remove(uint64_t key);

  bool MayContain(uint64_t key) const;

  size_t num_insertions() const { return num_insertions_; }
  size_t num_removals() const { return num_removals_; }
  size_t expected_items() const { return expected_items_; }
  // Capacity is gross insertions: removals do not reliably free cells
  // (saturated counters stick), so reusing freed capacity would let
  // the realized error rate drift above design.
  bool AtCapacity() const { return num_insertions_ >= expected_items_; }

  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  void Snapshot(std::ostream& out) const;

  // Null on decode failure or any field inconsistent with what the
  // constructor would have produced.
  static std::unique_ptr<CountingBloomFilter> FromSnapshot(std::istream& in);

  // True if this filter has exactly the sizing the constructor picks
  // for (expected_items, fp_rate).
  bool SizedFor(size_t expected_items, double fp_rate) const;

  // Counting snapshots carry no format prefix (see
  // ScalableFilter::Snapshot).
  static void WriteFormatPrefix(std::ostream&) {}
  static bool ReadFormatPrefix(std::istream&) { return true; }

 private:
  CountingBloomFilter() = default;  // for FromSnapshot

  size_t CellIndex(uint64_t h1, uint64_t h2, int i) const {
    return (h1 + static_cast<uint64_t>(i) * h2) % num_cells_;
  }
  uint32_t CellValue(size_t cell) const {
    return static_cast<uint32_t>(words_[cell >> 5] >> ((cell & 31) * 2)) & 3u;
  }
  void SetCellValue(size_t cell, uint32_t value) {
    const size_t shift = (cell & 31) * 2;
    words_[cell >> 5] =
        (words_[cell >> 5] & ~(uint64_t{3} << shift)) |
        (static_cast<uint64_t>(value) << shift);
  }

  size_t expected_items_ = 0;
  size_t num_cells_ = 0;
  int num_hashes_ = 0;
  size_t num_insertions_ = 0;
  size_t num_removals_ = 0;
  std::vector<uint64_t> words_;
};

extern template class ScalableFilter<CountingBloomFilter>;
using ScalableCountingBloomFilter = ScalableFilter<CountingBloomFilter>;

}  // namespace pier

#endif  // PIER_UTIL_COUNTING_BLOOM_FILTER_H_
