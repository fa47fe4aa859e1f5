// Strategy selection heuristic -- the paper's stated future work
// ("integration of a heuristic for determining the best appropriate
// method to use for the given data", Section 8), grounded in its
// empirical findings (Section 7.2.3/7.3.1): block-centric I-PBS wins
// on relational-style data whose smallest blocks are highly
// informative (short, non-heterogeneous values as in the census
// dataset), while entity-centric I-PES is the robust default on
// heterogeneous web-style data.
//
// The selector inspects a sample of already-ingested data (block
// collection + profiles) and scores "relational-ness" from three
// signals: value length, profile-size dispersion, and the share of
// small blocks among the active ones.

#ifndef PIER_CORE_STRATEGY_SELECTOR_H_
#define PIER_CORE_STRATEGY_SELECTOR_H_

#include <string>

#include "blocking/block_collection.h"
#include "core/pier_pipeline.h"
#include "model/profile_store.h"

namespace pier {

struct StrategyRecommendation {
  PierStrategy strategy = PierStrategy::kIPes;
  // The signals behind the choice, for logging/inspection.
  double mean_tokens_per_profile = 0.0;
  double token_count_cv = 0.0;      // coefficient of variation
  double mean_value_length = 0.0;   // characters per attribute value
  double small_block_share = 0.0;   // active blocks with <= 4 members
  // Why, in words; callers print it next to ToString(strategy).
  std::string rationale;
};

// Analyzes the data seen so far and recommends a prioritization
// strategy. Deterministic; cheap (one pass over profiles and blocks).
// With no data yet, recommends I-PES (the paper's overall winner).
StrategyRecommendation RecommendStrategy(const BlockCollection& blocks,
                                         const ProfileStore& profiles);

}  // namespace pier

#endif  // PIER_CORE_STRATEGY_SELECTOR_H_
