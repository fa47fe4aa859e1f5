// I-PBS: Incremental Progressive Block Scheduling (Section 5,
// Algorithm 3). Block-centric prioritization based on the hypothesis
// that smaller blocks are more likely to contain duplicates: globally
// maintained indexes track, per block, the number of unexecuted
// comparisons (CI) and the unexecuted profiles (PI); on every update
// the block yielding the fewest unexecuted comparisons is scheduled,
// its comparisons entering the global CmpIndex with a composite
// (block size, CBS weight) priority. A comparison filter CF
// (PairFilter) suppresses redundant comparisons [16]; it admits each
// pair into the CmpIndex at most once, so it is the only pair filter
// on the I-PBS path (the pipeline runs no executed filter behind it).

#ifndef PIER_CORE_I_PBS_H_
#define PIER_CORE_I_PBS_H_

#include <cstdint>
#include <iosfwd>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/prioritizer.h"
#include "model/comparison.h"
#include "model/pair_filter.h"
#include "util/bounded_priority_queue.h"

namespace pier {

class IPbs : public IncrementalPrioritizer {
 public:
  IPbs(PrioritizerContext ctx, PrioritizerOptions options);

  WorkStats UpdateCmpIndex(const std::vector<ProfileId>& delta) override;
  bool Dequeue(Comparison* out) override;
  bool Empty() const override { return index_.empty(); }
  void OnRetract(ProfileId id) override;
  const PairFilter* UniquePairFilter() const override { return &cf_; }
  void Snapshot(std::ostream& out) const override;
  bool Restore(std::istream& in) override;

  // Exposed for tests: the number of blocks currently carrying
  // unexecuted comparisons.
  size_t NumPendingBlocks() const { return min_index_.size(); }

 private:
  // Schedules the comparisons of block `token` (the current b_min)
  // into the CmpIndex (Algorithm 3, lines 10-14) and resets its CI/PI
  // entries (lines 15-16).
  void ScheduleBlock(TokenId token, WorkStats* stats);

  PrioritizerContext ctx_;
  PrioritizerOptions options_;

  // CI: block -> number of unexecuted comparisons contributed by
  // still-unexecuted profiles. Entries absent from the map are
  // conceptually +infinity.
  std::unordered_map<TokenId, uint64_t> cardinality_index_;
  // PI: block -> unexecuted profiles.
  std::unordered_map<TokenId, std::vector<ProfileId>> profile_index_;
  // Orders blocks by unexecuted-comparison count for O(log n) b_min
  // selection; mirrors cardinality_index_ entries with count > 0.
  std::set<std::pair<uint64_t, TokenId>> min_index_;

  // CF: redundancy filter over already-scheduled pairs, exact and
  // retractable, so OnRetract can withdraw a retracted profile's pairs
  // and a corrected profile's comparisons reschedule. A pair enters the
  // CmpIndex only when CF first sees it, so Dequeue never repeats a
  // pair.
  PairFilter cf_;

  BoundedPriorityQueue<Comparison, CompareByBlockThenWeight> index_;
};

}  // namespace pier

#endif  // PIER_CORE_I_PBS_H_
