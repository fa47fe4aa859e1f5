#include "core/strategy_selector.h"

#include <cmath>
#include <string_view>

namespace pier {

StrategyRecommendation RecommendStrategy(const BlockCollection& blocks,
                                         const ProfileStore& profiles) {
  StrategyRecommendation rec;
  if (profiles.empty()) {
    rec.rationale = "no data yet; the default";
    return rec;
  }

  // Profile-shape signals.
  double token_sum = 0.0;
  double token_sq_sum = 0.0;
  uint64_t value_chars = 0;
  uint64_t value_count = 0;
  for (ProfileId id = 0; id < profiles.size(); ++id) {
    const EntityProfile& p = profiles.Get(id);
    const double t = static_cast<double>(p.tokens().size());
    token_sum += t;
    token_sq_sum += t * t;
    p.ForEachAttribute([&](std::string_view, std::string_view value) {
      value_chars += value.size();
      ++value_count;
    });
  }
  const double n = static_cast<double>(profiles.size());
  rec.mean_tokens_per_profile = token_sum / n;
  const double variance =
      std::max(0.0, token_sq_sum / n - rec.mean_tokens_per_profile *
                                           rec.mean_tokens_per_profile);
  rec.token_count_cv =
      rec.mean_tokens_per_profile > 0.0
          ? std::sqrt(variance) / rec.mean_tokens_per_profile
          : 0.0;
  rec.mean_value_length =
      value_count == 0
          ? 0.0
          : static_cast<double>(value_chars) / static_cast<double>(value_count);

  // Block-shape signal: how much of the collection consists of tiny,
  // highly informative blocks.
  size_t active = 0;
  size_t small = 0;
  for (TokenId token = 0; token < blocks.NumSlots(); ++token) {
    if (!blocks.IsActive(token)) continue;
    ++active;
    if (blocks.block(token).size() <= 4) ++small;
  }
  rec.small_block_share =
      active == 0 ? 0.0
                  : static_cast<double>(small) / static_cast<double>(active);

  // Relational-style data: short values, uniform profile sizes, and a
  // block collection not dominated by tiny blocks (short values from
  // modest vocabularies produce mid-size blocks whose *smallest* are
  // highly informative). Heterogeneous web data has long ragged
  // profiles and a long tail of near-singleton blocks.
  const bool short_values = rec.mean_value_length <= 12.0;
  const bool uniform_profiles = rec.token_count_cv <= 0.35;
  if (short_values && uniform_profiles) {
    rec.strategy = PierStrategy::kIPbs;
    rec.rationale =
        "short uniform relational-style values: smallest blocks are "
        "highly informative, block-centric scheduling preferred";
  } else {
    rec.strategy = PierStrategy::kIPes;
    rec.rationale =
        "heterogeneous or long-valued profiles: entity-centric "
        "scheduling is the robust choice";
  }
  return rec;
}

}  // namespace pier
