// Threshold-aware similarity kernels: bit-parallel Levenshtein (Myers,
// JACM 1999, in Hyyro's block formulation) and size/overlap-filtered
// token-set verdicts (prefix/size filtering a la PPJoin). All kernels
// are *exact-equivalent* to the naive reference implementations in
// string_distance.h: the Myers kernels return the same integer
// distances as the DP, and every Verdict helper answers exactly
// "reference similarity >= threshold?" including the reference's
// floating-point rounding behaviour (the threshold is converted into
// an integer bound via the same IEEE expressions the reference
// evaluates, exploiting the monotonicity of correctly-rounded
// division/subtraction).
//
// All kernels take a caller-owned SimilarityScratch and perform no
// per-call heap allocation once the scratch has warmed up; the
// ParallelMatchExecutor keeps one scratch per worker shard.

#ifndef PIER_SIMILARITY_SIMILARITY_KERNELS_H_
#define PIER_SIMILARITY_SIMILARITY_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "model/types.h"

namespace pier {

// Reusable buffers for the Myers kernels. `pv`/`mv` carry each 64-row
// block's vertical deltas from one text column to the next; within a
// column the horizontal delta passes from block to block as two carry
// bits, so only the vertical state lives here. The Peq table is
// block-major (block b's 256 byte rows at peq[256 * b ..]), and a call
// builds a block (zeroes its rows, sets its 64 bits) only when the
// band first reaches it: on dbpedia-ed about half of a pattern's
// blocks before the diagonal exit. A block an earlier, longer pattern
// left behind is never read before it is rebuilt. Safe to reuse
// across patterns of any length; grows on demand.
struct SimilarityScratch {
  std::vector<uint64_t> peq;        // 256 rows per block, block-major
  std::vector<uint64_t> pv;         // vertical +1 deltas, per block
  std::vector<uint64_t> mv;         // vertical -1 deltas, per block
  size_t block_capacity = 0;

  // Ensures capacity for `blocks` 64-row blocks.
  void ReserveBlocks(size_t blocks);
};

// Exact Levenshtein distance via Myers' bit-parallel algorithm:
// single-word fast path when the shorter string fits in 64 chars,
// blocked multi-word variant otherwise, common prefix/suffix trimming
// first. Identical results to Levenshtein() at ~word-width less work.
size_t MyersEditDistance(std::string_view a, std::string_view b,
                         SimilarityScratch* scratch);

// Bounded variant: returns min(Levenshtein(a, b), max_dist + 1).
// Applies the length-difference lower bound up front, computes only
// the 64-row blocks covering the max_dist + 1 diagonals an alignment
// within the bound can use (Ukkonen's band), and stops as soon as the
// cell on the diagonal that ends in the result exceeds max_dist.
size_t MyersEditDistanceBounded(std::string_view a, std::string_view b,
                                size_t max_dist, SimilarityScratch* scratch);

// Largest edit distance d in [-1, max_len] such that the reference
// score expression `1.0 - double(d) / double(max_len)` is >=
// threshold; -1 when even distance 0 fails (threshold > 1). Evaluates
// the exact expression NormalizedEditSimilarity() uses, so
// `dist <= MaxEditDistanceForThreshold(t, L)` is bit-equivalent to
// `NormalizedEditSimilarity(a, b) >= t` for strings of max length L.
// Requires max_len > 0 (callers handle the both-empty case).
ptrdiff_t MaxEditDistanceForThreshold(double threshold, size_t max_len);

// Smallest intersection size c such that the reference Jaccard
// expression `double(c) / double(size_a + size_b - c)` is >=
// threshold; may exceed min(size_a, size_b), in which case no
// intersection can reach the threshold (the PPJoin-style size filter).
// Requires size_a + size_b > 0.
size_t MinOverlapForJaccard(double threshold, size_t size_a, size_t size_b);

// Same for the set-cosine expression
// `double(c) / std::sqrt(double(size_a) * double(size_b))`.
// Requires size_a > 0 and size_b > 0.
size_t MinOverlapForCosine(double threshold, size_t size_a, size_t size_b);

// True iff |a n b| >= required, for sorted unique spans. Abandons
// the scan as soon as the remaining elements cannot reach `required`
// (running upper bound) and switches to galloping (exponential +
// binary search) probes of the longer vector when the sizes are
// heavily skewed.
bool IntersectionAtLeast(std::span<const TokenId> a,
                         std::span<const TokenId> b, size_t required);

// Verdict kernels: exactly `JaccardSimilarity(a, b) >= threshold`
// (resp. CosineSimilarity) without computing the score -- size filter
// first, then a bounded intersection.
bool JaccardVerdict(std::span<const TokenId> a,
                    std::span<const TokenId> b, double threshold);
bool CosineVerdict(std::span<const TokenId> a,
                   std::span<const TokenId> b, double threshold);

}  // namespace pier

#endif  // PIER_SIMILARITY_SIMILARITY_KERNELS_H_
