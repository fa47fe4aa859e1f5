#include "util/bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "util/serial.h"

namespace pier {

namespace {
constexpr double kLn2 = 0.6931471805599453;
// The sentinel-prefixed format's layout byte; 2 is blocked-512, the
// value every snapshot since the layout flag was introduced carries.
constexpr uint8_t kBlocked512Layout = 2;

uint64_t SecondHash(uint64_t key) {
  return Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
}

// Calls visit(word, mask) for each of the k probe bits inside a
// 512-bit block: 9-bit slices of h2 address the bits, re-mixed when a
// word of slices runs out (at most every 7 probes). Stops early and
// returns false as soon as visit does.
template <typename Visit>
bool ForEachProbe(uint64_t h2, int num_hashes, Visit visit) {
  uint64_t h = h2;
  int avail = 7;
  for (int i = 0; i < num_hashes; ++i) {
    if (avail == 0) {
      h = Mix64(h);
      avail = 7;
    }
    const size_t bit = h & 511;
    h >>= 9;
    --avail;
    if (!visit(bit >> 6, uint64_t{1} << (bit & 63))) return false;
  }
  return true;
}
}  // namespace

void BloomFilter::ExpectedSizing(size_t expected_items, double fp_rate,
                                 size_t* num_bits, int* num_hashes) {
  const double n = static_cast<double>(expected_items);
  const double m = std::ceil(-n * std::log(fp_rate) / (kLn2 * kLn2));
  // Whole cache-line blocks: round up so every block is fully
  // addressable by a 9-bit in-block offset.
  const size_t bits =
      (std::max(static_cast<size_t>(m), kBlockBits) + kBlockBits - 1) /
      kBlockBits * kBlockBits;
  // k must be derived from the *actual* (rounded) bit count: for tiny
  // capacities the rounding would otherwise leave k sized for the
  // unrounded m and the realized FP rate off-design.
  int hashes =
      static_cast<int>(std::round(static_cast<double>(bits) / n * kLn2));
  if (hashes < 1) hashes = 1;
  *num_bits = bits;
  *num_hashes = hashes;
}

bool BloomFilter::SizedFor(size_t expected_items, double fp_rate) const {
  size_t bits = 0;
  int hashes = 0;
  ExpectedSizing(expected_items, fp_rate, &bits, &hashes);
  return expected_items_ == expected_items && num_bits_ == bits &&
         num_hashes_ == hashes;
}

BloomFilter::BloomFilter(size_t expected_items, double fp_rate)
    : expected_items_(expected_items) {
  PIER_CHECK(expected_items > 0);
  PIER_CHECK(fp_rate > 0.0 && fp_rate < 1.0);
  ExpectedSizing(expected_items, fp_rate, &num_bits_, &num_hashes_);
  bits_.assign(num_bits_ / 64, 0);
}

void BloomFilter::Add(uint64_t key) {
  uint64_t* block = &bits_[BlockOffset(Mix64(key))];
  ForEachProbe(SecondHash(key), num_hashes_, [block](size_t w, uint64_t m) {
    block[w] |= m;
    return true;
  });
  ++num_insertions_;
}

bool BloomFilter::MayContain(uint64_t key) const {
  const uint64_t* block = &bits_[BlockOffset(Mix64(key))];
  return ForEachProbe(
      SecondHash(key), num_hashes_,
      [block](size_t w, uint64_t m) { return (block[w] & m) != 0; });
}

void BloomFilter::WriteFormatPrefix(std::ostream& out) {
  serial::WriteU64(out, 0);
  serial::WriteU8(out, kBlocked512Layout);
}

bool BloomFilter::ReadFormatPrefix(std::istream& in) {
  uint64_t sentinel = 0;
  uint8_t layout = 0;
  return serial::ReadU64(in, &sentinel) && sentinel == 0 &&
         serial::ReadU8(in, &layout) && layout == kBlocked512Layout;
}

void BloomFilter::Snapshot(std::ostream& out) const {
  WriteFormatPrefix(out);
  serial::WriteU64(out, expected_items_);
  serial::WriteU64(out, num_bits_);
  serial::WriteU32(out, static_cast<uint32_t>(num_hashes_));
  serial::WriteU64(out, num_insertions_);
  serial::WriteVec(out, bits_, serial::WriteU64);
}

std::unique_ptr<BloomFilter> BloomFilter::FromSnapshot(std::istream& in) {
  auto filter = std::unique_ptr<BloomFilter>(new BloomFilter());
  uint64_t expected_items = 0;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint64_t num_insertions = 0;
  if (!ReadFormatPrefix(in) || !serial::ReadU64(in, &expected_items) ||
      !serial::ReadU64(in, &num_bits) || !serial::ReadU32(in, &num_hashes) ||
      !serial::ReadU64(in, &num_insertions) ||
      !serial::ReadVec(in, &filter->bits_, serial::ReadU64)) {
    return nullptr;
  }
  if (expected_items == 0 || num_bits < kBlockBits ||
      num_bits % kBlockBits != 0 || num_hashes < 1 || num_hashes > 255 ||
      filter->bits_.size() != num_bits / 64) {
    return nullptr;
  }
  filter->expected_items_ = expected_items;
  filter->num_bits_ = num_bits;
  filter->num_hashes_ = static_cast<int>(num_hashes);
  filter->num_insertions_ = num_insertions;
  return filter;
}

}  // namespace pier
