// String and token-set similarity primitives used by the match
// functions. All token-set functions take *sorted, de-duplicated*
// TokenId spans (the invariant EntityProfile::tokens() maintains).

#ifndef PIER_SIMILARITY_STRING_DISTANCE_H_
#define PIER_SIMILARITY_STRING_DISTANCE_H_

#include <cstddef>
#include <span>
#include <string_view>

#include "model/types.h"

namespace pier {

// Number of common elements of two sorted unique vectors.
size_t IntersectionSize(std::span<const TokenId> a,
                        std::span<const TokenId> b);

// |a n b| / |a u b|; 1.0 when both empty.
double JaccardSimilarity(std::span<const TokenId> a,
                         std::span<const TokenId> b);

// |a n b| / min(|a|, |b|); 1.0 when both are empty, 0.0 when exactly
// one is empty.
double OverlapCoefficient(std::span<const TokenId> a,
                          std::span<const TokenId> b);

// |a n b| / sqrt(|a| * |b|) (set cosine); 1.0 when both empty.
double CosineSimilarity(std::span<const TokenId> a,
                        std::span<const TokenId> b);

// Levenshtein edit distance (unit costs), O(|a| * |b|) time,
// O(min(|a|, |b|)) space.
size_t Levenshtein(std::string_view a, std::string_view b);

// 1 - dist / max(|a|, |b|); 1.0 when both empty.
double NormalizedEditSimilarity(std::string_view a, std::string_view b);

}  // namespace pier

#endif  // PIER_SIMILARITY_STRING_DISTANCE_H_
