// A split-block Bloom filter over 64-bit keys, the append-only slice
// of the scalable Bloom filter (see scalable_bloom_filter.h) that
// implements the comparison filter CF of the I-PBS algorithm
// (Algorithm 3 of the paper; technique from Gazzarri & Herschel, EDBT
// 2020 [16]) and the executed-comparison filter.
//
// Layout: one fastrange hash picks a 512-bit block (one cache line);
// all k probe bits land inside that block, addressed by 9-bit slices
// of a second hash. A query touches exactly one cache line instead of
// k, at the cost of a slightly higher false-positive rate for the same
// bit count (~1.2-2x at typical k; the scalable wrapper's tightening
// schedule absorbs it).
//
// Snapshot format: a zero u64 sentinel and the layout byte 2 lead the
// sizing fields and the bit array. Both are constants now that
// blocked-512 is the only layout; they keep the bytes of existing
// snapshots, and a payload without them (the retired flat layouts'
// format) is rejected.

#ifndef PIER_UTIL_BLOOM_FILTER_H_
#define PIER_UTIL_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "util/check.h"
#include "util/hashing.h"

namespace pier {

class BloomFilter {
 public:
  // Sizes the filter for `expected_items` insertions at false-positive
  // probability `fp_rate` (0 < fp_rate < 1).
  BloomFilter(size_t expected_items, double fp_rate);

  // Inserts a key. Counts insertions so the owner can detect when the
  // filter reaches its design capacity.
  void Add(uint64_t key);

  // True if the key *may* have been inserted; false means definitely
  // not inserted.
  bool MayContain(uint64_t key) const;

  size_t num_insertions() const { return num_insertions_; }
  size_t expected_items() const { return expected_items_; }
  bool AtCapacity() const { return num_insertions_ >= expected_items_; }

  size_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }

  // Estimated memory footprint in bytes.
  size_t MemoryBytes() const { return bits_.size() * sizeof(uint64_t); }

  // Serializes the sentinel, layout byte, sizing parameters, insertion
  // count and the bit array (little-endian; see util/serial.h).
  void Snapshot(std::ostream& out) const;

  // Reconstructs a filter from a Snapshot payload; null on any decode
  // failure or inconsistent field (e.g. word count not matching the
  // recorded bit count).
  static std::unique_ptr<BloomFilter> FromSnapshot(std::istream& in);

  // True if this filter has exactly the sizing the constructor picks
  // for (expected_items, fp_rate): how a snapshot reader validates
  // recorded dimensions without allocating a reference filter.
  bool SizedFor(size_t expected_items, double fp_rate) const;

  // The zero sentinel and layout byte that lead this filter's and the
  // scalable wrapper's snapshots. ReadFormatPrefix is false on
  // anything else, e.g. a payload of the retired flat layouts.
  static void WriteFormatPrefix(std::ostream& out);
  static bool ReadFormatPrefix(std::istream& in);

 private:
  static constexpr size_t kBlockBits = 512;
  static constexpr size_t kBlockWords = kBlockBits / 64;

  BloomFilter() = default;  // for FromSnapshot

  // The (bits, hashes) the constructor picks for the parameters.
  static void ExpectedSizing(size_t expected_items, double fp_rate,
                             size_t* num_bits, int* num_hashes);

  // The cache line a key's probes land in: Lemire fastrange maps h1
  // onto the block count with a multiply and shift.
  size_t BlockOffset(uint64_t h1) const {
    const size_t blocks = num_bits_ / kBlockBits;
    return static_cast<size_t>((static_cast<unsigned __int128>(h1) * blocks) >>
                               64) *
           kBlockWords;
  }

  size_t expected_items_ = 0;
  size_t num_bits_ = 0;
  int num_hashes_ = 0;
  size_t num_insertions_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace pier

#endif  // PIER_UTIL_BLOOM_FILTER_H_
