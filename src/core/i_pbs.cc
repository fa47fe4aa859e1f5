#include "core/i_pbs.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "metablocking/weighting.h"
#include "util/serial.h"

namespace pier {

IPbs::IPbs(PrioritizerContext ctx, PrioritizerOptions options)
    : ctx_(ctx),
      options_(options),
      index_(options.cmp_index_capacity) {}

WorkStats IPbs::UpdateCmpIndex(const std::vector<ProfileId>& delta) {
  WorkStats stats;
  const BlockCollection& blocks = *ctx_.blocks;

  // Lines 1-5: fold the increment's profiles into CI and PI.
  for (const ProfileId id : delta) {
    const EntityProfile& p = ctx_.profiles->Get(id);
    for (const TokenId token : p.tokens()) {
      if (blocks.IsPurged(token)) continue;
      const BlockView b = blocks.block(token);
      const uint64_t new_comparisons =
          b.NumNewComparisons(blocks.kind(), p.source);
      auto [it, inserted] = cardinality_index_.try_emplace(token, 0);
      if (!inserted && it->second > 0) {
        min_index_.erase({it->second, token});
      }
      it->second += new_comparisons;
      if (it->second > 0) min_index_.insert({it->second, token});
      profile_index_[token].push_back(p.id);
      ++stats.block_updates;
    }
  }

  // Line 6 onwards: schedule b_min, the block yielding the fewest
  // unexecuted comparisons. On an idle tick (empty delta) with a
  // drained index we keep scheduling blocks until one actually yields
  // comparisons -- a scheduled block may contribute nothing when all
  // of its pairs were already caught by the comparison filter CF.
  do {
    // Blocks that grew past the purging threshold since their CI entry
    // was created are discarded here (incremental block purging).
    TokenId bmin_token = kInvalidTokenId;
    while (!min_index_.empty()) {
      const TokenId candidate = min_index_.begin()->second;
      if (!blocks.IsPurged(candidate)) {
        bmin_token = candidate;
        break;
      }
      min_index_.erase(min_index_.begin());
      cardinality_index_.erase(candidate);
      profile_index_.erase(candidate);
    }
    if (bmin_token == kInvalidTokenId) return stats;
    const uint32_t bmin_size =
        static_cast<uint32_t>(blocks.block(bmin_token).size());

    // Lines 7-9. The paper updates the CmpIndex "only when the
    // comparisons generated in an earlier iteration have been
    // exhausted or [to] prefer comparisons that originated from
    // smaller blocks"; we schedule b_min when the index is empty or
    // when b_min is smaller than the block that produced the current
    // top comparison (i.e. the new block would actually preempt),
    // which implements that stated intent. (Algorithm 3 line 9 prints
    // the comparison reversed, which would starve better blocks.)
    if (!index_.empty() && bmin_size >= index_.PeekMax().block_size) {
      return stats;
    }
    ScheduleBlock(bmin_token, &stats);
  } while (delta.empty() && index_.empty());
  return stats;
}

void IPbs::ScheduleBlock(TokenId token, WorkStats* stats) {
  const BlockCollection& blocks = *ctx_.blocks;
  const ProfileStore& profiles = *ctx_.profiles;
  const BlockView b = blocks.block(token);
  const uint32_t bsize = static_cast<uint32_t>(b.size());
  const DatasetKind kind = blocks.kind();

  // Lines 10-14: all non-redundant comparisons with at least one
  // unexecuted endpoint (p_x ranges over PI(b_min), p_y over the whole
  // block); CF catches both cross-block redundancy and x,y both in PI.
  const auto pi_it = profile_index_.find(token);
  if (pi_it != profile_index_.end()) {
    for (const ProfileId x : pi_it->second) {
      const EntityProfile& px = profiles.Get(x);
      const SourceId lo = kind == DatasetKind::kCleanClean
                              ? static_cast<SourceId>(1 - px.source)
                              : static_cast<SourceId>(0);
      const SourceId hi =
          kind == DatasetKind::kCleanClean ? lo : static_cast<SourceId>(1);
      for (SourceId s = lo; s <= hi; ++s) {
        for (const ProfileId y : b.members[s]) {
          if (y == x) continue;
          Comparison c(x, y, 0.0, bsize);
          if (cf_.TestAndAdd(c.x, c.y)) continue;  // redundant
          c.weight = PairCbsWeight(px, profiles.Get(y));
          index_.PushBounded(c);
          ++stats->comparisons_generated;
          ++stats->index_ops;
        }
      }
    }
  }

  // Lines 15-16: reset the block's CI/PI entries.
  auto ci_it = cardinality_index_.find(token);
  if (ci_it != cardinality_index_.end()) {
    if (ci_it->second > 0) min_index_.erase({ci_it->second, token});
    cardinality_index_.erase(ci_it);
  }
  profile_index_.erase(token);
}

bool IPbs::Dequeue(Comparison* out) {
  if (index_.empty()) return false;
  *out = index_.PopMax();
  return true;
}

void IPbs::OnRetract(ProfileId id) {
  // PI: drop the profile from the pending lists of its blocks (its
  // tokens are still readable -- OnRetract precedes the store
  // mutation). The CI counts are a scheduling heuristic and are left
  // untouched; ScheduleBlock resets them when the block fires.
  const EntityProfile& p = ctx_.profiles->Get(id);
  for (const TokenId token : p.tokens()) {
    auto it = profile_index_.find(token);
    if (it == profile_index_.end()) continue;
    auto& list = it->second;
    const auto pos = std::find(list.begin(), list.end(), id);
    if (pos != list.end()) list.erase(pos);
    if (list.empty()) profile_index_.erase(it);
  }

  // CF: forget every scheduled pair with this endpoint so a corrected
  // profile's comparisons pass the filter again.
  cf_.Retract(id);

  // CmpIndex: drop the retracted profile's comparisons in place (one
  // O(n) pass and heap rebuild; the dequeue order of the rest cannot
  // change, CompareByBlockThenWeight being a strict total order).
  index_.EraseIf([id](const Comparison& c) { return c.x == id || c.y == id; });
}

void IPbs::Snapshot(std::ostream& out) const {
  // CI and PI are serialized sorted by token so identical state always
  // produces identical bytes regardless of hash-map iteration order.
  std::vector<std::pair<TokenId, uint64_t>> ci(cardinality_index_.begin(),
                                               cardinality_index_.end());
  std::sort(ci.begin(), ci.end());
  serial::WriteVec(out, ci,
                   [](std::ostream& o, const std::pair<TokenId, uint64_t>& e) {
                     serial::WriteU32(o, e.first);
                     serial::WriteU64(o, e.second);
                   });

  std::vector<TokenId> pi_tokens;
  pi_tokens.reserve(profile_index_.size());
  for (const auto& [token, unused] : profile_index_) pi_tokens.push_back(token);
  std::sort(pi_tokens.begin(), pi_tokens.end());
  serial::WriteU64(out, pi_tokens.size());
  for (const TokenId token : pi_tokens) {
    serial::WriteU32(out, token);
    serial::WriteVec(out, profile_index_.at(token), serial::WriteU32);
  }

  cf_.Snapshot(out);
  serial::WriteVec(out, index_.data(), SnapshotComparison);
}

bool IPbs::Restore(std::istream& in) {
  std::vector<std::pair<TokenId, uint64_t>> ci;
  if (!serial::ReadVec(in, &ci,
                       [](std::istream& s, std::pair<TokenId, uint64_t>* e) {
                         return serial::ReadU32(s, &e->first) &&
                                serial::ReadU64(s, &e->second);
                       })) {
    return false;
  }

  uint64_t pi_count = 0;
  if (!serial::ReadU64(in, &pi_count)) return false;
  std::unordered_map<TokenId, std::vector<ProfileId>> pi;
  pi.reserve(std::min<uint64_t>(pi_count, 1u << 20));
  for (uint64_t i = 0; i < pi_count; ++i) {
    TokenId token = 0;
    std::vector<ProfileId> members;
    if (!serial::ReadU32(in, &token) ||
        !serial::ReadVec(in, &members, serial::ReadU32)) {
      return false;
    }
    if (!pi.emplace(token, std::move(members)).second) return false;
  }

  if (!cf_.Restore(in)) return false;
  std::vector<Comparison> data;
  if (!serial::ReadVec(in, &data, RestoreComparison)) return false;
  if (!index_.RestoreData(std::move(data))) return false;

  cardinality_index_.clear();
  min_index_.clear();
  for (const auto& [token, count] : ci) {
    if (!cardinality_index_.emplace(token, count).second) return false;
    // min_index_ mirrors CI entries with count > 0 -- rebuild the
    // invariant instead of serializing the set redundantly.
    if (count > 0) min_index_.insert({count, token});
  }
  profile_index_ = std::move(pi);
  return true;
}

}  // namespace pier
