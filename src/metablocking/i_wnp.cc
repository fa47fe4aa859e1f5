#include "metablocking/i_wnp.h"

#include <algorithm>
#include <cstddef>

namespace pier {

double MeanWeight(std::span<const Comparison> candidates) {
  if (candidates.empty()) return 0.0;
  double total = 0.0;
  for (const auto& c : candidates) total += c.weight;
  return total / static_cast<double>(candidates.size());
}

void IWnpPrune(std::vector<Comparison>* candidates, size_t begin) {
  const auto tail = std::span<const Comparison>(*candidates).subspan(begin);
  if (tail.size() <= 1) return;
  const double mean = MeanWeight(tail);
  candidates->erase(
      std::remove_if(candidates->begin() + static_cast<std::ptrdiff_t>(begin),
                     candidates->end(),
                     [mean](const Comparison& c) { return c.weight < mean; }),
      candidates->end());
}

}  // namespace pier
