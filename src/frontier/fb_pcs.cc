#include "frontier/fb_pcs.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <span>
#include <utility>

#include "blocking/block_ghosting.h"
#include "metablocking/i_wnp.h"
#include "metablocking/weighting.h"
#include "util/serial.h"

namespace pier {

namespace {

// Feedback tuning (not fingerprinted: they shape scheduling order, not
// serialized state, and changing them must not invalidate snapshots).
// kPseudo pseudo-counts pull a young block's posterior toward the
// global prior; a block is promoted once its boost reaches
// kPromoteBoost on at least kMinTrials verdicts.
constexpr double kPseudo = 8.0;
constexpr double kMinBoost = 0.5;
constexpr double kMaxBoost = 3.0;
constexpr double kPromoteBoost = 2.0;
constexpr uint32_t kMinTrials = 6;

}  // namespace

FbPcs::FbPcs(PrioritizerContext ctx, PrioritizerOptions options)
    : ctx_(ctx),
      options_(options),
      index_(options.cmp_index_capacity),
      scanner_(ctx) {
  if (ctx_.metrics != nullptr) {
    obs::MetricsRegistry& r = *ctx_.metrics;
    verdicts_metric_ = r.GetCounter("frontier.feedback_verdicts");
    promotions_metric_ = r.GetCounter("frontier.blocks_promoted");
    hot_pairs_metric_ = r.GetCounter("frontier.hot_pairs");
  }
}

double FbPcs::BlockBoost(TokenId t) const {
  if (t >= trials_.size() || trials_[t] == 0 || global_trials_ == 0) {
    return 1.0;
  }
  // Laplace-smoothed global prior; pseudo-count-smoothed per-block
  // posterior. The boost is the posterior-to-prior ratio, clamped.
  const double prior = (static_cast<double>(global_matches_) + 1.0) /
                       (static_cast<double>(global_trials_) + 2.0);
  const double posterior =
      (static_cast<double>(matches_[t]) + kPseudo * prior) /
      (static_cast<double>(trials_[t]) + kPseudo);
  return std::clamp(posterior / prior, kMinBoost, kMaxBoost);
}

double FbPcs::PairBoost(const EntityProfile& a, const EntityProfile& b) const {
  // Sorted-merge walk over the two token lists; the *best* common
  // block decides (pBlocking promotes a pair when any shared block
  // looks hot).
  double boost = 1.0;
  bool any = false;
  const std::span<const TokenId> ta = a.tokens();
  const std::span<const TokenId> tb = b.tokens();
  size_t i = 0;
  size_t j = 0;
  while (i < ta.size() && j < tb.size()) {
    if (ta[i] < tb[j]) {
      ++i;
    } else if (ta[i] > tb[j]) {
      ++j;
    } else {
      const double f = BlockBoost(ta[i]);
      boost = any ? std::max(boost, f) : f;
      any = true;
      ++i;
      ++j;
    }
  }
  return any ? boost : 1.0;
}

void FbPcs::ServeHotBlock(WorkStats* stats) {
  const BlockCollection& blocks = *ctx_.blocks;
  const ProfileStore& profiles = *ctx_.profiles;
  while (hot_head_ < hot_queue_.size()) {
    const TokenId token = hot_queue_[hot_head_++];
    if (!blocks.IsActive(token)) continue;
    const BlockView b = blocks.block(token);
    const double boost = BlockBoost(token);
    const uint32_t bsize = static_cast<uint32_t>(b.size());
    uint64_t emitted = 0;
    const auto push = [&](ProfileId x, ProfileId y) {
      index_.PushBounded(Comparison(
          x, y, PairCbsWeight(profiles.Get(x), profiles.Get(y)) * boost,
          bsize));
      ++stats->index_ops;
      ++emitted;
    };
    if (blocks.kind() == DatasetKind::kCleanClean) {
      for (const ProfileId x : b.members[0]) {
        for (const ProfileId y : b.members[1]) push(x, y);
      }
    } else {
      // Dirty: all pairs across both member lists.
      for (size_t i = 0; i < b.size(); ++i) {
        for (size_t j = i + 1; j < b.size(); ++j) {
          push(b.member(i), b.member(j));
        }
      }
    }
    stats->comparisons_generated += emitted;
    obs::CounterAdd(hot_pairs_metric_, emitted);
    return;  // at most one hot block per update call
  }
}

WorkStats FbPcs::UpdateCmpIndex(const std::vector<ProfileId>& delta) {
  WorkStats stats;
  const WeightingContext wctx{ctx_.blocks, ctx_.profiles, options_.scheme};

  std::vector<Comparison> cmp_list;
  for (const ProfileId id : delta) {
    const EntityProfile& p = ctx_.profiles->Get(id);
    GhostBlocks(*ctx_.blocks, p, options_.beta, &retained_);
    std::vector<Comparison> candidates = GenerateWeightedComparisons(
        wctx, p, retained_, /*only_older_neighbors=*/true, /*visits=*/nullptr,
        &scratch_);
    stats.comparisons_generated += candidates.size();
    candidates = IWnpPrune(std::move(candidates));
    // The feedback decoration: scale each surviving candidate by its
    // best common block's posterior boost.
    for (Comparison& c : candidates) {
      c.weight *= PairBoost(p, ctx_.profiles->Get(c.y));
    }
    cmp_list.insert(cmp_list.end(), candidates.begin(), candidates.end());
  }

  // Promoted blocks jump the queue ahead of the scanner fallback: one
  // hot block per call keeps the hook O(block) and starvation-free.
  ServeHotBlock(&stats);

  if (delta.empty() && index_.empty()) {
    cmp_list = scanner_.NextBlock(&stats);
  }

  for (auto& c : cmp_list) {
    index_.PushBounded(c);
    ++stats.index_ops;
  }
  return stats;
}

void FbPcs::RecordVerdict(ProfileId a, ProfileId b, bool is_match) {
  const ProfileStore& profiles = *ctx_.profiles;
  // Verdicts arrive after emission; either endpoint may have been
  // retracted (mutable streams) in between.
  if (a >= profiles.size() || b >= profiles.size() || !profiles.IsLive(a) ||
      !profiles.IsLive(b)) {
    return;
  }
  obs::CounterAdd(verdicts_metric_);
  ++global_trials_;
  if (is_match) ++global_matches_;
  const EntityProfile& pa = profiles.Get(a);
  const EntityProfile& pb = profiles.Get(b);
  const BlockCollection& blocks = *ctx_.blocks;
  const std::span<const TokenId> ta = pa.tokens();
  const std::span<const TokenId> tb = pb.tokens();
  size_t i = 0;
  size_t j = 0;
  while (i < ta.size() && j < tb.size()) {
    if (ta[i] < tb[j]) {
      ++i;
    } else if (ta[i] > tb[j]) {
      ++j;
    } else {
      const TokenId t = ta[i];
      if (t >= trials_.size()) {
        trials_.resize(t + 1, 0);
        matches_.resize(t + 1, 0);
        promoted_.resize(t + 1, 0);
      }
      ++trials_[t];
      if (is_match) ++matches_[t];
      // Promotion check on the updated posterior: enough evidence and
      // a boost past the threshold enqueues the whole block once.
      if (promoted_[t] == 0 && trials_[t] >= kMinTrials &&
          BlockBoost(t) >= kPromoteBoost && blocks.IsActive(t) &&
          blocks.block(t).NumComparisons(blocks.kind()) > 0) {
        promoted_[t] = 1;
        hot_queue_.push_back(t);
        obs::CounterAdd(promotions_metric_);
      }
      ++i;
      ++j;
    }
  }
}

bool FbPcs::Dequeue(Comparison* out) {
  if (index_.empty()) return false;
  *out = index_.PopMax();
  return true;
}

void FbPcs::OnRetract(ProfileId id) {
  // Purge pending comparisons with the retracted endpoint (same
  // in-place compaction as I-PCS). Token verdict statistics are
  // deliberately kept: they describe the block's history, which remains
  // predictive for the survivors; the emit-time liveness check handles
  // the rest.
  index_.EraseIf([id](const Comparison& c) { return c.x == id || c.y == id; });
}

void FbPcs::Snapshot(std::ostream& out) const {
  serial::WriteVec(out, index_.data(), SnapshotComparison);
  scanner_.Snapshot(out);
  serial::WriteVec(out, trials_, serial::WriteU32);
  serial::WriteVec(out, matches_, serial::WriteU32);
  serial::WriteU64(out, global_trials_);
  serial::WriteU64(out, global_matches_);
  serial::WriteVec(out, promoted_, serial::WriteU8);
  serial::WriteVec(out, hot_queue_, serial::WriteU32);
  serial::WriteU64(out, hot_head_);
}

bool FbPcs::Restore(std::istream& in) {
  std::vector<Comparison> data;
  if (!serial::ReadVec(in, &data, RestoreComparison)) return false;
  if (!index_.RestoreData(std::move(data))) return false;
  if (!scanner_.Restore(in)) return false;
  std::vector<uint32_t> trials;
  std::vector<uint32_t> matches;
  uint64_t global_trials = 0;
  uint64_t global_matches = 0;
  std::vector<uint8_t> promoted;
  std::vector<TokenId> hot_queue;
  uint64_t hot_head = 0;
  if (!serial::ReadVec(in, &trials, serial::ReadU32) ||
      !serial::ReadVec(in, &matches, serial::ReadU32) ||
      !serial::ReadU64(in, &global_trials) ||
      !serial::ReadU64(in, &global_matches) ||
      !serial::ReadVec(in, &promoted, serial::ReadU8) ||
      !serial::ReadVec(in, &hot_queue, serial::ReadU32) ||
      !serial::ReadU64(in, &hot_head)) {
    return false;
  }
  // Cross-field invariants: parallel per-token arrays, counts that
  // add up, and a queue cursor inside the queue.
  if (matches.size() != trials.size() || promoted.size() != trials.size() ||
      global_matches > global_trials || hot_head > hot_queue.size()) {
    return false;
  }
  for (size_t t = 0; t < trials.size(); ++t) {
    if (matches[t] > trials[t]) return false;
  }
  trials_ = std::move(trials);
  matches_ = std::move(matches);
  global_trials_ = global_trials;
  global_matches_ = global_matches;
  promoted_ = std::move(promoted);
  hot_queue_ = std::move(hot_queue);
  hot_head_ = hot_head;
  return true;
}

}  // namespace pier
