#include "baseline/batch_er.h"

#include <algorithm>

namespace pier {

WorkStats BatchEr::OnIncrement(std::vector<EntityProfile> profiles) {
  // Batch ER only accumulates until the dataset is complete.
  WorkStats stats;
  IngestToStore(std::move(profiles), &stats);
  return stats;
}

WorkStats BatchEr::OnStreamEnd() {
  started_ = true;
  return {};
}

void BatchEr::FillBuffer(WorkStats* stats) {
  while (buffer_.empty() && cursor_ < blocks_.NumSlots()) {
    const TokenId token = cursor_++;
    if (!blocks_.IsActive(token)) continue;
    const BlockView b = blocks_.block(token);
    const uint32_t bsize = static_cast<uint32_t>(b.size());
    auto emit = [&](ProfileId x, ProfileId y) {
      Comparison c(x, y, 0.0, bsize);
      if (executed_.TestAndAdd(c.Key())) return;
      buffer_.push_back(c);
      ++stats->comparisons_generated;
    };
    if (blocks_.kind() == DatasetKind::kCleanClean) {
      for (const ProfileId x : b.members[0]) {
        for (const ProfileId y : b.members[1]) emit(x, y);
      }
    } else {
      // Dirty: all pairs across both member lists.
      for (size_t i = 0; i < b.size(); ++i) {
        for (size_t j = i + 1; j < b.size(); ++j) {
          emit(b.member(i), b.member(j));
        }
      }
    }
  }
}

std::vector<Comparison> BatchEr::NextBatch(WorkStats* stats) {
  std::vector<Comparison> out;
  if (!started_) return out;
  if (buffer_.empty()) FillBuffer(stats);
  const size_t n = std::min(batch_size_, buffer_.size());
  out.assign(buffer_.end() - static_cast<ptrdiff_t>(n), buffer_.end());
  std::reverse(out.begin(), out.end());  // best (back of buffer) first
  buffer_.resize(buffer_.size() - n);
  return out;
}

}  // namespace pier
