#include "similarity/string_distance.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "similarity/intersect_kernel.h"

namespace pier {

size_t IntersectionSize(std::span<const TokenId> a,
                        std::span<const TokenId> b) {
  return SortedIntersectionSize(a, b);
}

double JaccardSimilarity(std::span<const TokenId> a,
                         std::span<const TokenId> b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t common = IntersectionSize(a, b);
  const size_t uni = a.size() + b.size() - common;
  return uni == 0 ? 1.0 : static_cast<double>(common) / uni;
}

double OverlapCoefficient(std::span<const TokenId> a,
                          std::span<const TokenId> b) {
  if (a.empty() && b.empty()) return 1.0;
  // An empty profile shares nothing with a non-empty one; returning
  // 1.0 here would make it "fully similar" to everything.
  if (a.empty() || b.empty()) return 0.0;
  const size_t common = IntersectionSize(a, b);
  return static_cast<double>(common) / std::min(a.size(), b.size());
}

double CosineSimilarity(std::span<const TokenId> a,
                        std::span<const TokenId> b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t common = IntersectionSize(a, b);
  return static_cast<double>(common) /
         std::sqrt(static_cast<double>(a.size()) *
                   static_cast<double>(b.size()));
}

size_t Levenshtein(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  if (b.empty()) return a.size();
  std::vector<size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), size_t{0});
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];  // D[i-1][j-1]
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];  // D[i-1][j]
      const size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      row[j] = std::min({row[j - 1] + 1, up + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

double NormalizedEditSimilarity(std::string_view a, std::string_view b) {
  if (a == b) return 1.0;  // covers the both-empty case; no DP needed
  // The length difference lower-bounds the distance; when one side is
  // empty the bound is tight (dist == max_len), so the score is 0.
  if (a.empty() || b.empty()) return 0.0;
  const size_t max_len = std::max(a.size(), b.size());
  const size_t dist = Levenshtein(a, b);
  return 1.0 - static_cast<double>(dist) / static_cast<double>(max_len);
}

}  // namespace pier
