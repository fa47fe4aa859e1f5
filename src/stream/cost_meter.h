// Virtual-time cost attribution (DESIGN.md "Virtual time"): the
// simulator charges every pipeline operation a duration, either the
// *measured* wall time of the real C++ computation (realistic, used by
// the benches) or a *modeled* cost derived from the operation's work
// statistics (deterministic, used by tests and reproducible figures).

#ifndef PIER_STREAM_COST_METER_H_
#define PIER_STREAM_COST_METER_H_

#include <cstdint>

#include "core/prioritizer.h"

namespace pier {

class CostMeter {
 public:
  enum class Mode : uint8_t { kMeasured = 0, kModeled = 1 };

  explicit CostMeter(Mode mode) : mode_(mode) {}

  // Cost of a pipeline step that performed `stats` work and took
  // `measured_seconds` of wall time.
  double StepCost(const WorkStats& stats, double measured_seconds) const {
    if (mode_ == Mode::kMeasured) return measured_seconds + kPerCallOverhead;
    return kPerCallOverhead +
           kPerProfile * static_cast<double>(stats.profiles) +
           kPerToken * static_cast<double>(stats.tokens) +
           kPerBlockUpdate * static_cast<double>(stats.block_updates) +
           kPerComparisonGenerated *
               static_cast<double>(stats.comparisons_generated) +
           kPerIndexOp * static_cast<double>(stats.index_ops);
  }

  // Cost of matching a batch whose matcher cost-units sum to `units`.
  double MatchCost(uint64_t units, double measured_seconds) const {
    if (mode_ == Mode::kMeasured) return measured_seconds + kPerCallOverhead;
    return kPerCallOverhead + kPerMatchUnit * static_cast<double>(units);
  }

 private:
  // Unit costs (seconds per unit of work) for the modeled mode. They
  // approximate the measured per-op costs of this implementation on a
  // ~2.5 GHz core, so modeled and measured runs have the same orders
  // of magnitude.
  static constexpr double kPerProfile = 2e-6;
  static constexpr double kPerToken = 2e-7;
  static constexpr double kPerBlockUpdate = 1.5e-7;
  static constexpr double kPerComparisonGenerated = 4e-7;
  static constexpr double kPerIndexOp = 3e-7;
  // Per matcher cost-unit (Matcher::CostUnits): token for JS, DP cell
  // for ED.
  static constexpr double kPerMatchUnit = 4e-9;
  // Fixed overhead charged to every operation, so virtual time always
  // advances.
  static constexpr double kPerCallOverhead = 2e-6;

  Mode mode_;
};

}  // namespace pier

#endif  // PIER_STREAM_COST_METER_H_
