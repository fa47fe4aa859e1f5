// SPER-SK: stochastic top-k comparison scheduling, after SPER
// (arXiv 2512.23491). Instead of enumerating a new profile's full
// co-blocked neighbourhood and keeping an exactly-ordered bounded
// priority queue (I-PCS), SPER-SK draws a fixed per-profile budget of
// candidate edges from the retained blocks (small blocks favoured,
// 1/|b| block-selection weights) and maintains an *approximate*
// frontier: an unordered reservoir with tournament insertion and
// tournament dequeue over a handful of random probes. Scheduling cost
// per profile is O(budget) instead of O(neighbourhood), at the price
// of an approximately-best-first emission order.
//
// Determinism contract: all randomness comes from one seeded Rng
// (PrioritizerOptions::frontier_seed) consumed only on the pipeline
// thread, so a run is byte-identical across reruns with the same seed
// and across every execution thread count; the seed joins the options
// fingerprint and the full RNG state is checkpointed. See DESIGN.md
// section 10.

#ifndef PIER_FRONTIER_SPER_SK_H_
#define PIER_FRONTIER_SPER_SK_H_

#include <vector>

#include "core/block_scanner.h"
#include "core/prioritizer.h"
#include "model/comparison.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace pier {

class SperSk : public IncrementalPrioritizer {
 public:
  SperSk(PrioritizerContext ctx, PrioritizerOptions options);

  WorkStats UpdateCmpIndex(const std::vector<ProfileId>& delta) override;
  bool Dequeue(Comparison* out) override;
  bool Empty() const override { return frontier_.empty(); }
  void OnStreamEnd() override { scanner_.AllowFullRescan(); }
  void OnRetract(ProfileId id) override;
  void Snapshot(std::ostream& out) const override;
  bool Restore(std::istream& in) override;

 private:
  // Draws up to kSampleBudget (sper_sk.cc) candidate edges for profile
  // `id` from its retained blocks; small neighbourhoods (total member
  // visits <= budget) are enumerated exactly instead, so sparse data
  // loses nothing to sampling.
  void SampleProfile(ProfileId id, WorkStats* stats);

  // Reservoir insertion: appends while below capacity, otherwise
  // replaces the weakest of kProbes random slots if the candidate
  // beats it.
  void TournamentInsert(const Comparison& c, WorkStats* stats);

  PrioritizerContext ctx_;
  PrioritizerOptions options_;
  Rng rng_;
  // The approximate frontier: unordered; order is a deterministic
  // function of the seed and the increment history.
  std::vector<Comparison> frontier_;
  BlockScanner scanner_;
  WeightingScratch scratch_;  // per-profile dedup of sampled partners
  std::vector<TokenId> retained_;  // reused ghosting output buffer
  std::vector<double> block_cdf_;  // reused block-selection cumsums
  std::vector<BlockView> block_views_;  // blocks behind block_cdf_

  // `frontier.*` metrics; null when the pipeline is uninstrumented.
  obs::Counter* samples_accepted_metric_ = nullptr;
  obs::Counter* samples_rejected_metric_ = nullptr;
  obs::Counter* exact_profiles_metric_ = nullptr;
  obs::Counter* evictions_metric_ = nullptr;
};

}  // namespace pier

#endif  // PIER_FRONTIER_SPER_SK_H_
