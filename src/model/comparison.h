// A weighted comparison candidate: an unordered pair of profiles plus
// the priority metadata the different CmpIndex variants order by.

#ifndef PIER_MODEL_COMPARISON_H_
#define PIER_MODEL_COMPARISON_H_

#include <cstdint>
#include <iosfwd>

#include "model/types.h"
#include "util/hashing.h"

namespace pier {

struct Comparison {
  ProfileId x = kInvalidProfileId;
  ProfileId y = kInvalidProfileId;

  // Match-likelihood weight from the meta-blocking weighting scheme
  // (CBS by default). Higher is more promising.
  double weight = 0.0;

  // For I-PBS only: size of the generating block at enqueue time; the
  // I-PBS CmpIndex prioritizes smaller blocks first, then weight
  // (Algorithm 3, line 13). Zero for the other strategies.
  uint32_t block_size = 0;

  Comparison() = default;
  Comparison(ProfileId x_in, ProfileId y_in, double weight_in = 0.0,
             uint32_t block_size_in = 0)
      : x(x_in), y(y_in), weight(weight_in), block_size(block_size_in) {}

  // Canonical unordered-pair key: (a,b) == (b,a).
  uint64_t Key() const { return PairKey(x, y); }
};

// Orders by weight; ties broken by pair key so the order is total and
// runs are deterministic. The "max" element is the most promising.
struct CompareByWeight {
  bool operator()(const Comparison& a, const Comparison& b) const {
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.Key() > b.Key();  // smaller key wins ties -> "greater"
  }
};

// I-PBS order: smaller generating block is *better*, then higher
// weight, then deterministic tie break. Implemented as a Less where
// the best comparison is the Less-greatest element.
struct CompareByBlockThenWeight {
  bool operator()(const Comparison& a, const Comparison& b) const {
    if (a.block_size != b.block_size) return a.block_size > b.block_size;
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.Key() > b.Key();
  }
};

// Snapshot helpers (defined in comparison.cc to keep this hot header
// lean): fixed-width little-endian encoding of all four fields, the
// weight as raw double bits.
void SnapshotComparison(std::ostream& out, const Comparison& c);
bool RestoreComparison(std::istream& in, Comparison* c);

// The outcome of matching one comparison: the thresholded
// classification plus the matcher's deterministic work estimate (fed
// to the modeled cost meter). Produced by ParallelMatchExecutor,
// consumed by PierPipeline::RecordVerdicts.
struct MatchVerdict {
  bool is_match = false;
  uint64_t cost_units = 0;
};

}  // namespace pier

#endif  // PIER_MODEL_COMPARISON_H_
