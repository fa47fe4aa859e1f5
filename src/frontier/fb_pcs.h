// FB-PCS: feedback-driven progressive comparison scheduling, after
// pBlocking (arXiv 2005.14326). A decorator over the I-PCS shape:
// candidate generation is identical (ghosting, weighting kernel,
// I-WNP), but every weight is multiplied by a *block boost* derived
// from per-token match-rate posteriors that the matcher's verdict
// stream (RecordVerdict: positives and negatives) keeps updating. Tokens
// whose blocks keep producing matches are promoted -- their remaining
// pairs are scheduled wholesale through a hot-block queue -- while
// tokens that keep producing non-matches see their future pairs
// demoted below the clamp floor. Scoring math and the feedback update
// rule are documented in DESIGN.md section 10.

#ifndef PIER_FRONTIER_FB_PCS_H_
#define PIER_FRONTIER_FB_PCS_H_

#include <vector>

#include "core/block_scanner.h"
#include "core/prioritizer.h"
#include "model/comparison.h"
#include "obs/metrics.h"
#include "util/bounded_priority_queue.h"

namespace pier {

class FbPcs : public IncrementalPrioritizer {
 public:
  FbPcs(PrioritizerContext ctx, PrioritizerOptions options);

  WorkStats UpdateCmpIndex(const std::vector<ProfileId>& delta) override;
  bool Dequeue(Comparison* out) override;
  bool Empty() const override {
    return index_.empty() && hot_head_ >= hot_queue_.size();
  }
  void OnStreamEnd() override { scanner_.AllowFullRescan(); }
  void OnRetract(ProfileId id) override;
  void RecordVerdict(ProfileId a, ProfileId b, bool is_match) override;
  void Snapshot(std::ostream& out) const override;
  bool Restore(std::istream& in) override;

 private:
  // Posterior boost factor of token t's block: the smoothed per-block
  // match rate over the global prior, clamped to [kMinBoost,
  // kMaxBoost]; 1.0 while the token has no verdict history.
  double BlockBoost(TokenId t) const;

  // Max boost over the two profiles' common tokens (1.0 when none has
  // history): the edge-level factor applied to candidate weights.
  double PairBoost(const EntityProfile& a, const EntityProfile& b) const;

  // Emits every remaining pair of the next promoted block into the
  // index at boosted weight (the executed filter suppresses re-runs).
  void ServeHotBlock(WorkStats* stats);

  PrioritizerContext ctx_;
  PrioritizerOptions options_;
  BoundedPriorityQueue<Comparison, CompareByWeight> index_;
  BlockScanner scanner_;
  WeightingScratch scratch_;
  std::vector<TokenId> retained_;  // reused ghosting output buffer
  std::vector<Comparison> candidates_;  // reused I-WNP buffer

  // Per-token verdict history (indexed by TokenId, grown on demand)
  // plus the global totals behind the prior.
  std::vector<uint32_t> trials_;
  std::vector<uint32_t> matches_;
  uint64_t global_trials_ = 0;
  uint64_t global_matches_ = 0;

  // Promotion: each token enters the hot queue at most once, when its
  // boost first crosses the promotion threshold with enough evidence.
  std::vector<uint8_t> promoted_;
  std::vector<TokenId> hot_queue_;
  uint64_t hot_head_ = 0;

  // `frontier.*` metrics; null when the pipeline is uninstrumented.
  obs::Counter* verdicts_metric_ = nullptr;
  obs::Counter* promotions_metric_ = nullptr;
  obs::Counter* hot_pairs_metric_ = nullptr;
};

}  // namespace pier

#endif  // PIER_FRONTIER_FB_PCS_H_
