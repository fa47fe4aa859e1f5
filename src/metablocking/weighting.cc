#include "metablocking/weighting.h"

#include <cmath>

#include "similarity/string_distance.h"
#include "util/check.h"

namespace pier {

namespace {

double SafeLog(double x) { return std::log(x < 1.01 ? 1.01 : x); }

// Source range of block members profile x may be compared against:
// cross-source only for Clean-Clean, the single source 0 for Dirty.
void NeighborSources(DatasetKind kind, const EntityProfile& x, SourceId* lo,
                     SourceId* hi) {
  *lo = kind == DatasetKind::kCleanClean ? static_cast<SourceId>(1 - x.source)
                                         : static_cast<SourceId>(0);
  *hi = kind == DatasetKind::kCleanClean ? *lo : static_cast<SourceId>(1);
}

}  // namespace

const char* ToString(WeightingScheme scheme) {
  switch (scheme) {
    case WeightingScheme::kCbs:
      return "CBS";
    case WeightingScheme::kEcbs:
      return "ECBS";
    case WeightingScheme::kJs:
      return "JS";
    case WeightingScheme::kArcs:
      return "ARCS";
  }
  return "?";
}

void AppendWeightedComparisons(const WeightingContext& ctx,
                               const EntityProfile& x,
                               const std::vector<TokenId>& retained_blocks,
                               bool only_older_neighbors, uint64_t* visits,
                               WeightingScratch& scratch,
                               std::vector<Comparison>* out) {
  PIER_DCHECK(ctx.blocks != nullptr && ctx.profiles != nullptr);
  PIER_DCHECK(out != nullptr);
  const BlockCollection& blocks = *ctx.blocks;
  const ProfileStore& profiles = *ctx.profiles;
  const DatasetKind kind = blocks.kind();

  scratch.BeginPass(profiles.size());

  // Accumulation: one dense-array update per raw member visit, no
  // hashing, no allocation. ARCS is the only scheme that needs the
  // per-block share, so the other three skip the double accumulate.
  const bool need_arcs = ctx.scheme == WeightingScheme::kArcs;
  uint64_t local_visits = 0;
  for (const TokenId token : retained_blocks) {
    const BlockView b = blocks.block(token);
    SourceId lo, hi;
    NeighborSources(kind, x, &lo, &hi);
    if (need_arcs) {
      const double arcs_share =
          1.0 / static_cast<double>(
                    std::max<uint64_t>(1, b.NumComparisons(kind)));
      for (SourceId s = lo; s <= hi; ++s) {
        local_visits += b.members[s].size();
        for (const ProfileId y : b.members[s]) {
          if (y == x.id) continue;
          if (only_older_neighbors && y > x.id) continue;
          scratch.AccumulateArcs(y, arcs_share);
        }
      }
    } else {
      for (SourceId s = lo; s <= hi; ++s) {
        local_visits += b.members[s].size();
        for (const ProfileId y : b.members[s]) {
          if (y == x.id) continue;
          if (only_older_neighbors && y > x.id) continue;
          scratch.Accumulate(y);
        }
      }
    }
  }

  const std::vector<ProfileId>& touched = scratch.touched();
  // Every distinct neighbour was found by at least one raw member
  // visit; a violation means the accumulator double-counted.
  PIER_DCHECK(local_visits >= touched.size());
  if (visits != nullptr) *visits += local_visits;

  // Weighting: replay the touched ids in first-touch order. The
  // neighbour's token count comes from the store's contiguous sidecar
  // rather than a Get() pointer chase into the cold profile record.
  out->reserve(out->size() + touched.size());
  const double num_blocks = static_cast<double>(blocks.NumBlocks());
  const double bx = static_cast<double>(x.tokens().size());
  switch (ctx.scheme) {
    case WeightingScheme::kCbs:
      for (const ProfileId y : touched) {
        out->emplace_back(x.id, y, static_cast<double>(scratch.cbs(y)));
      }
      break;
    case WeightingScheme::kEcbs: {
      // x's log factor is loop-invariant: one SafeLog per neighbour
      // instead of two.
      const double x_factor = SafeLog(num_blocks / std::max(1.0, bx));
      for (const ProfileId y : touched) {
        const double by = static_cast<double>(profiles.TokenCount(y));
        out->emplace_back(x.id, y,
                          scratch.cbs(y) * x_factor *
                              SafeLog(num_blocks / std::max(1.0, by)));
      }
      break;
    }
    case WeightingScheme::kJs:
      for (const ProfileId y : touched) {
        const double by = static_cast<double>(profiles.TokenCount(y));
        const uint32_t cbs = scratch.cbs(y);
        out->emplace_back(x.id, y, cbs / (bx + by - cbs));
      }
      break;
    case WeightingScheme::kArcs:
      for (const ProfileId y : touched) {
        out->emplace_back(x.id, y, scratch.arcs(y));
      }
      break;
  }
}

std::vector<Comparison> GenerateWeightedComparisons(
    const WeightingContext& ctx, const EntityProfile& x,
    const std::vector<TokenId>& retained_blocks, bool only_older_neighbors,
    uint64_t* visits, WeightingScratch* scratch) {
  thread_local WeightingScratch fallback;
  std::vector<Comparison> out;
  AppendWeightedComparisons(ctx, x, retained_blocks, only_older_neighbors,
                            visits, scratch != nullptr ? *scratch : fallback,
                            &out);
  return out;
}

double PairCbsWeight(const EntityProfile& a, const EntityProfile& b) {
  return static_cast<double>(IntersectionSize(a.tokens(), b.tokens()));
}

}  // namespace pier
