// findK() (Algorithm 1, line 4): chooses how many comparisons the
// prioritizer hands to the matcher per emission, adaptively balancing
// early quality against stream consumption. The controller estimates
// the stream's inter-arrival time and the matcher's per-comparison
// cost from sliding-window averages of the latest measurements and
// sizes K so one batch fits in a fraction (kTargetUtilization) of an
// inter-arrival period: a slow matcher therefore implies a small K, a
// fast matcher a large K, exactly the behaviour Section 3.2 describes.

#ifndef PIER_CORE_FIND_K_H_
#define PIER_CORE_FIND_K_H_

#include <cstddef>
#include <iosfwd>

#include "obs/metrics.h"
#include "util/moving_average.h"

namespace pier {

struct AdaptiveKOptions {
  size_t initial_k = 64;
  size_t min_k = 8;
  size_t max_k = 16384;
};

class AdaptiveK {
 public:
  // Number of latest measurements each estimator averages.
  static constexpr size_t kWindow = 8;

  explicit AdaptiveK(AdaptiveKOptions options = AdaptiveKOptions());

  // Records an increment arrival at virtual time `t` (seconds).
  void OnArrival(double t);

  // Records that a batch of `comparisons` took `seconds` to match.
  void OnBatchProcessed(size_t comparisons, double seconds);

  // The K to use for the next emission.
  size_t FindK();

  double MeanInterarrival() const;
  double MeanCostPerComparison() const;

  // Registers the controller's `findk.*` gauges (chosen K and the two
  // observed rates Algorithm 1 steers on) with `registry`; pass null
  // to detach. Non-owning.
  void AttachMetrics(obs::MetricsRegistry* registry);

  // Serializes the estimator windows, last arrival time, and smoothed
  // K (raw double bits, so a restored controller emits the same K
  // sequence the uninterrupted one would).
  void Snapshot(std::ostream& out) const;

  // Restores a Snapshot payload; the recorded window size must be
  // kWindow. Returns false on decode failure.
  bool Restore(std::istream& in);

 private:
  AdaptiveKOptions options_;
  WindowAverage interarrival_;
  WindowAverage cost_per_comparison_;
  double last_arrival_ = -1.0;
  double k_ = 0.0;

  obs::Gauge* k_gauge_ = nullptr;
  obs::Gauge* interarrival_gauge_ = nullptr;
  obs::Gauge* cost_gauge_ = nullptr;
};

}  // namespace pier

#endif  // PIER_CORE_FIND_K_H_
