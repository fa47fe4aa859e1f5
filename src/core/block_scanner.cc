#include "core/block_scanner.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "metablocking/weighting.h"
#include "util/serial.h"

namespace pier {

void BlockScanner::Rebuild() {
  order_.clear();
  const BlockCollection& blocks = *ctx_.blocks;
  if (scanned_size_.size() < blocks.NumSlots()) {
    scanned_size_.resize(blocks.NumSlots(), 0);
  }
  for (TokenId token = 0; token < blocks.NumSlots(); ++token) {
    if (!blocks.IsActive(token)) continue;
    const uint32_t size = static_cast<uint32_t>(blocks.block(token).size());
    const uint32_t scanned = scanned_size_[token];
    if (size <= scanned) continue;  // nothing new
    if (!full_rescan_ && scanned > 0) {
      // Growth throttle: wait for >= 2 new members and >= 12.5%.
      const uint32_t min_growth = std::max<uint32_t>(2, scanned / 8);
      if (size < scanned + min_growth) continue;
    }
    order_.emplace_back(size, token);
  }
  std::sort(order_.begin(), order_.end(),
            std::greater<std::pair<uint32_t, TokenId>>());
  exhausted_ = order_.empty();
}

std::vector<Comparison> BlockScanner::NextBlock(WorkStats* stats) {
  std::vector<Comparison> out;
  const BlockCollection& blocks = *ctx_.blocks;
  const ProfileStore& profiles = *ctx_.profiles;

  while (out.empty()) {
    if (order_.empty()) {
      Rebuild();
      if (order_.empty()) return out;
    }
    const TokenId token = order_.back().second;
    order_.pop_back();
    if (!blocks.IsActive(token)) continue;
    const BlockView b = blocks.block(token);
    const uint32_t bsize = static_cast<uint32_t>(b.size());
    if (scanned_size_.size() <= token) scanned_size_.resize(token + 1, 0);
    if (bsize <= scanned_size_[token]) continue;  // stale order entry
    scanned_size_[token] = bsize;
    scanned_any_ = true;

    out.reserve(static_cast<size_t>(b.NumComparisons(blocks.kind())));
    if (blocks.kind() == DatasetKind::kCleanClean) {
      for (const ProfileId x : b.members[0]) {
        for (const ProfileId y : b.members[1]) {
          out.emplace_back(x, y,
                           PairCbsWeight(profiles.Get(x), profiles.Get(y)),
                           bsize);
        }
      }
    } else {
      // Dirty: all pairs across both member lists (loaders may bucket
      // dirty records under either source label).
      for (size_t i = 0; i < bsize; ++i) {
        const ProfileId x = b.member(i);
        for (size_t j = i + 1; j < bsize; ++j) {
          const ProfileId y = b.member(j);
          out.emplace_back(x, y,
                           PairCbsWeight(profiles.Get(x), profiles.Get(y)),
                           bsize);
        }
      }
    }
  }
  if (stats != nullptr) {
    stats->comparisons_generated += out.size();
  }
  return out;
}

void BlockScanner::Snapshot(std::ostream& out) const {
  serial::WriteVec(out, scanned_size_, serial::WriteU32);
  serial::WriteVec(out, order_,
                   [](std::ostream& o, const std::pair<uint32_t, TokenId>& e) {
                     serial::WriteU32(o, e.first);
                     serial::WriteU32(o, e.second);
                   });
  serial::WriteBool(out, exhausted_);
  serial::WriteBool(out, full_rescan_);
}

bool BlockScanner::Restore(std::istream& in) {
  std::vector<uint32_t> scanned_size;
  std::vector<std::pair<uint32_t, TokenId>> order;
  bool exhausted = false;
  bool full_rescan = false;
  if (!serial::ReadVec(in, &scanned_size, serial::ReadU32) ||
      !serial::ReadVec(in, &order,
                       [](std::istream& s, std::pair<uint32_t, TokenId>* e) {
                         return serial::ReadU32(s, &e->first) &&
                                serial::ReadU32(s, &e->second);
                       }) ||
      !serial::ReadBool(in, &exhausted) ||
      !serial::ReadBool(in, &full_rescan)) {
    return false;
  }
  scanned_any_ = std::any_of(scanned_size.begin(), scanned_size.end(),
                             [](uint32_t size) { return size > 0; });
  scanned_size_ = std::move(scanned_size);
  order_ = std::move(order);
  exhausted_ = exhausted;
  full_rescan_ = full_rescan;
  return true;
}

}  // namespace pier
