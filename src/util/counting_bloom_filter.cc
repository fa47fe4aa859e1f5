#include "util/counting_bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "util/check.h"
#include "util/hashing.h"
#include "util/serial.h"

namespace pier {

namespace {
constexpr double kLn2 = 0.6931471805599453;

// The flat filter sizing: cells for `fp_rate` at `expected_items`
// (at least 64), and k derived from the clamped cell count.
void ExpectedSizing(size_t expected_items, double fp_rate, size_t* num_cells,
                    int* num_hashes) {
  const double n = static_cast<double>(expected_items);
  const double m = std::ceil(-n * std::log(fp_rate) / (kLn2 * kLn2));
  *num_cells = std::max<size_t>(static_cast<size_t>(m), 64);
  *num_hashes = std::max(
      1,
      static_cast<int>(std::round(static_cast<double>(*num_cells) / n * kLn2)));
}
}  // namespace

CountingBloomFilter::CountingBloomFilter(size_t expected_items, double fp_rate)
    : expected_items_(expected_items) {
  PIER_CHECK(expected_items > 0);
  PIER_CHECK(fp_rate > 0.0 && fp_rate < 1.0);
  ExpectedSizing(expected_items, fp_rate, &num_cells_, &num_hashes_);
  words_.assign((num_cells_ + 31) / 32, 0);
}

bool CountingBloomFilter::SizedFor(size_t expected_items,
                                   double fp_rate) const {
  size_t cells = 0;
  int hashes = 0;
  ExpectedSizing(expected_items, fp_rate, &cells, &hashes);
  return expected_items_ == expected_items && num_cells_ == cells &&
         num_hashes_ == hashes;
}

void CountingBloomFilter::Add(uint64_t key) {
  const uint64_t h1 = Mix64(key);
  const uint64_t h2 = Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t cell = CellIndex(h1, h2, i);
    const uint32_t value = CellValue(cell);
    if (value < 3) SetCellValue(cell, value + 1);
  }
  ++num_insertions_;
}

bool CountingBloomFilter::Remove(uint64_t key) {
  if (!MayContain(key)) return false;
  const uint64_t h1 = Mix64(key);
  const uint64_t h2 = Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t cell = CellIndex(h1, h2, i);
    const uint32_t value = CellValue(cell);
    // Saturated cells are sticky: we no longer know how many keys map
    // here, so decrementing could create a false negative.
    if (value > 0 && value < 3) SetCellValue(cell, value - 1);
  }
  ++num_removals_;
  return true;
}

bool CountingBloomFilter::MayContain(uint64_t key) const {
  const uint64_t h1 = Mix64(key);
  const uint64_t h2 = Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
  for (int i = 0; i < num_hashes_; ++i) {
    if (CellValue(CellIndex(h1, h2, i)) == 0) return false;
  }
  return true;
}

void CountingBloomFilter::Snapshot(std::ostream& out) const {
  serial::WriteU64(out, expected_items_);
  serial::WriteU64(out, num_cells_);
  serial::WriteU32(out, static_cast<uint32_t>(num_hashes_));
  serial::WriteU64(out, num_insertions_);
  serial::WriteU64(out, num_removals_);
  serial::WriteVec(out, words_, serial::WriteU64);
}

std::unique_ptr<CountingBloomFilter> CountingBloomFilter::FromSnapshot(
    std::istream& in) {
  auto filter =
      std::unique_ptr<CountingBloomFilter>(new CountingBloomFilter());
  uint64_t expected_items = 0;
  uint64_t num_cells = 0;
  uint32_t num_hashes = 0;
  uint64_t num_insertions = 0;
  uint64_t num_removals = 0;
  if (!serial::ReadU64(in, &expected_items) ||
      !serial::ReadU64(in, &num_cells) || !serial::ReadU32(in, &num_hashes) ||
      !serial::ReadU64(in, &num_insertions) ||
      !serial::ReadU64(in, &num_removals) ||
      !serial::ReadVec(in, &filter->words_, serial::ReadU64)) {
    return nullptr;
  }
  if (expected_items == 0 || num_cells < 64 || num_hashes < 1 ||
      num_hashes > 255 || num_removals > num_insertions ||
      filter->words_.size() != (num_cells + 31) / 32) {
    return nullptr;
  }
  filter->expected_items_ = expected_items;
  filter->num_cells_ = num_cells;
  filter->num_hashes_ = static_cast<int>(num_hashes);
  filter->num_insertions_ = num_insertions;
  filter->num_removals_ = num_removals;
  return filter;
}

}  // namespace pier
