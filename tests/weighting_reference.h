// Test oracle for the weighting kernel (metablocking/weighting.h): a
// straightforward per-call std::unordered_map formulation of
// GenerateWeightedComparisons, shared by the equivalence tests and the
// weighting-kernel benchmark. Produces the same (x, y, weight) multiset
// as the scratch kernel, in unspecified order.

#ifndef PIER_TESTS_WEIGHTING_REFERENCE_H_
#define PIER_TESTS_WEIGHTING_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "metablocking/weighting.h"
#include "model/profile_store.h"

namespace pier {

inline std::vector<Comparison> GenerateWeightedComparisonsReference(
    const WeightingContext& ctx, const EntityProfile& x,
    const std::vector<TokenId>& retained_blocks,
    bool only_older_neighbors = true, uint64_t* visits = nullptr) {
  struct NeighborStats {
    uint32_t cbs = 0;
    double arcs = 0.0;
  };
  const auto safe_log = [](double v) { return std::log(v < 1.01 ? 1.01 : v); };
  const BlockCollection& blocks = *ctx.blocks;
  const DatasetKind kind = blocks.kind();
  // Clean-Clean compares across sources only; Dirty has source 0 alone.
  const auto lo = kind == DatasetKind::kCleanClean
                      ? static_cast<SourceId>(1 - x.source)
                      : static_cast<SourceId>(0);
  const auto hi = kind == DatasetKind::kCleanClean ? lo : SourceId{1};

  std::unordered_map<ProfileId, NeighborStats> neighbors;
  for (const TokenId token : retained_blocks) {
    const BlockView b = blocks.block(token);
    const double arcs_share =
        1.0 / static_cast<double>(
                  std::max<uint64_t>(1, b.NumComparisons(kind)));
    for (SourceId s = lo; s <= hi; ++s) {
      if (visits != nullptr) *visits += b.members[s].size();
      for (const ProfileId y : b.members[s]) {
        if (y == x.id) continue;
        if (only_older_neighbors && y > x.id) continue;
        NeighborStats& stats = neighbors[y];
        ++stats.cbs;
        stats.arcs += arcs_share;
      }
    }
  }

  std::vector<Comparison> out;
  out.reserve(neighbors.size());
  const double num_blocks = static_cast<double>(blocks.NumBlocks());
  const double bx = static_cast<double>(x.tokens().size());
  for (const auto& [y, stats] : neighbors) {
    const double by =
        static_cast<double>(ctx.profiles->Get(y).tokens().size());
    double w = 0.0;
    switch (ctx.scheme) {
      case WeightingScheme::kCbs:
        w = stats.cbs;
        break;
      case WeightingScheme::kEcbs:
        w = stats.cbs * safe_log(num_blocks / std::max(1.0, bx)) *
            safe_log(num_blocks / std::max(1.0, by));
        break;
      case WeightingScheme::kJs:
        w = stats.cbs / (bx + by - stats.cbs);
        break;
      case WeightingScheme::kArcs:
        w = stats.arcs;
        break;
    }
    out.emplace_back(x.id, y, w);
  }
  return out;
}

}  // namespace pier

#endif  // PIER_TESTS_WEIGHTING_REFERENCE_H_
