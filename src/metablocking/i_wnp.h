// I-WNP: incremental Weighted Node Pruning (Gazzarri & Herschel, ICDE
// 2021 [17]). Given the weighted comparison candidates of one
// profile's neighbourhood, it discards every candidate whose weight is
// below the neighbourhood's mean weight. This is the incremental
// comparison-cleaning step invoked by I-PCS and I-PES (Algorithm 2,
// line 8).

#ifndef PIER_METABLOCKING_I_WNP_H_
#define PIER_METABLOCKING_I_WNP_H_

#include <cstddef>
#include <span>
#include <vector>

#include "model/comparison.h"

namespace pier {

// Prunes one neighbourhood in place: of the candidates in
// (*candidates)[begin, end), keeps those with weight >= their mean
// weight, in order; the elements before `begin` are untouched. Callers
// append each profile's candidates to one reused buffer and prune its
// tail. An empty or single-candidate tail is kept as is.
void IWnpPrune(std::vector<Comparison>* candidates, size_t begin);

// The mean weight of a candidate list, summed in order (0.0 for an
// empty list).
double MeanWeight(std::span<const Comparison> candidates);

}  // namespace pier

#endif  // PIER_METABLOCKING_I_WNP_H_
