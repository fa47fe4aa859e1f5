#include "core/i_pcs.h"

#include <istream>
#include <ostream>
#include <utility>

#include "blocking/block_ghosting.h"
#include "metablocking/i_wnp.h"
#include "util/serial.h"

namespace pier {

IPcs::IPcs(PrioritizerContext ctx, PrioritizerOptions options)
    : ctx_(ctx),
      options_(options),
      index_(options.cmp_index_capacity),
      scanner_(ctx) {}

WorkStats IPcs::UpdateCmpIndex(const std::vector<ProfileId>& delta) {
  WorkStats stats;
  const WeightingContext wctx{ctx_.blocks, ctx_.profiles, options_.scheme};

  candidates_.clear();
  for (const ProfileId id : delta) {
    const EntityProfile& p = ctx_.profiles->Get(id);
    // Algorithm 2, lines 4-5: retained blocks after block ghosting.
    GhostBlocks(*ctx_.blocks, p, options_.beta, &retained_);
    // Lines 6-7: candidate generation (only_older_neighbors makes each
    // pair unique per increment), appended to one reused buffer; line
    // 8: I-WNP comparison cleaning of the profile's tail.
    const size_t begin = candidates_.size();
    AppendWeightedComparisons(wctx, p, retained_, /*only_older_neighbors=*/true,
                              /*visits=*/nullptr, scratch_, &candidates_);
    stats.comparisons_generated += candidates_.size() - begin;
    IWnpPrune(&candidates_, begin);
  }
  // Lines 12-13: fold into the global bounded index.
  for (const Comparison& c : candidates_) {
    index_.PushBounded(c);
    ++stats.index_ops;
  }

  // Lines 10-11: on an idle tick with a drained index, fall back to
  // scanning blocks smallest-first.
  if (delta.empty() && index_.empty()) {
    for (const Comparison& c : scanner_.NextBlock(&stats)) {
      index_.PushBounded(c);
      ++stats.index_ops;
    }
  }
  return stats;
}

void IPcs::OnRetract(ProfileId id) {
  // Purge the CmpIndex of comparisons touching the retracted profile in
  // place (one O(n) pass and heap rebuild; the dequeue order of the
  // rest cannot change, CompareByWeight being a strict total order).
  index_.EraseIf([id](const Comparison& c) { return c.x == id || c.y == id; });
}

bool IPcs::Dequeue(Comparison* out) {
  if (index_.empty()) return false;
  *out = index_.PopMax();
  return true;
}

void IPcs::Snapshot(std::ostream& out) const {
  // The heap's backing vector verbatim: restoring it reproduces the
  // exact interval-heap layout, hence the exact dequeue order.
  serial::WriteVec(out, index_.data(), SnapshotComparison);
  scanner_.Snapshot(out);
}

bool IPcs::Restore(std::istream& in) {
  std::vector<Comparison> data;
  if (!serial::ReadVec(in, &data, RestoreComparison)) return false;
  if (!index_.RestoreData(std::move(data))) return false;
  return scanner_.Restore(in);
}

}  // namespace pier
