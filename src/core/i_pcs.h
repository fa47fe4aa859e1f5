// I-PCS: Incremental Progressive Comparison Scheduling (Section 4,
// Algorithm 2). Comparison-centric prioritization: every new profile's
// neighbourhood is ghosted (block cleaning), weighted (CBS by
// default), pruned (I-WNP), and the survivors are pushed into one
// global bounded priority queue ordered by weight. Its effectiveness
// therefore hinges entirely on the weighting scheme -- the limitation
// that motivates I-PES (Section 6).

#ifndef PIER_CORE_I_PCS_H_
#define PIER_CORE_I_PCS_H_

#include <vector>

#include "core/block_scanner.h"
#include "core/prioritizer.h"
#include "model/comparison.h"
#include "util/bounded_priority_queue.h"

namespace pier {

class IPcs : public IncrementalPrioritizer {
 public:
  IPcs(PrioritizerContext ctx, PrioritizerOptions options);

  WorkStats UpdateCmpIndex(const std::vector<ProfileId>& delta) override;
  bool Dequeue(Comparison* out) override;
  bool Empty() const override { return index_.empty(); }
  void OnStreamEnd() override { scanner_.AllowFullRescan(); }
  void OnRetract(ProfileId id) override;
  bool EmitsOnlyNewPairs() const override { return !scanner_.ScannedAny(); }
  void Snapshot(std::ostream& out) const override;
  bool Restore(std::istream& in) override;

 private:
  PrioritizerContext ctx_;
  PrioritizerOptions options_;
  BoundedPriorityQueue<Comparison, CompareByWeight> index_;
  BlockScanner scanner_;
  WeightingScratch scratch_;  // reused across increments
  std::vector<TokenId> retained_;  // reused ghosting output buffer
  std::vector<Comparison> candidates_;  // reused I-WNP buffer
};

}  // namespace pier

#endif  // PIER_CORE_I_PCS_H_
