#include "core/find_k.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/check.h"
#include "util/serial.h"

namespace pier {

namespace {

// Fraction of the inter-arrival budget one batch may consume; the
// remainder absorbs blocking/prioritization work and rate jitter.
constexpr double kTargetUtilization = 0.5;
// Smoothing: K_new = (1 - kGain) * K_old + kGain * K_target.
constexpr double kGain = 0.3;

}  // namespace

AdaptiveK::AdaptiveK(AdaptiveKOptions options)
    : options_(options),
      interarrival_(kWindow),
      cost_per_comparison_(kWindow),
      k_(static_cast<double>(options.initial_k)) {
  PIER_CHECK(options_.min_k > 0 && options_.min_k <= options_.max_k);
}

void AdaptiveK::OnArrival(double t) {
  if (last_arrival_ >= 0.0 && t > last_arrival_) {
    interarrival_.Add(t - last_arrival_);
    obs::GaugeSet(interarrival_gauge_, interarrival_.Mean());
  }
  last_arrival_ = t;
}

void AdaptiveK::OnBatchProcessed(size_t comparisons, double seconds) {
  if (comparisons == 0) return;
  cost_per_comparison_.Add(seconds / static_cast<double>(comparisons));
  obs::GaugeSet(cost_gauge_, cost_per_comparison_.Mean());
}

void AdaptiveK::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    k_gauge_ = nullptr;
    interarrival_gauge_ = nullptr;
    cost_gauge_ = nullptr;
    return;
  }
  k_gauge_ = registry->GetGauge("findk.k");
  interarrival_gauge_ = registry->GetGauge("findk.mean_interarrival_s");
  cost_gauge_ = registry->GetGauge("findk.mean_cost_per_comparison_s");
}

double AdaptiveK::MeanInterarrival() const {
  return interarrival_.empty() ? 0.0 : interarrival_.Mean();
}

double AdaptiveK::MeanCostPerComparison() const {
  return cost_per_comparison_.empty() ? 0.0 : cost_per_comparison_.Mean();
}

void AdaptiveK::Snapshot(std::ostream& out) const {
  interarrival_.Snapshot(out);
  cost_per_comparison_.Snapshot(out);
  serial::WriteF64(out, last_arrival_);
  serial::WriteF64(out, k_);
}

bool AdaptiveK::Restore(std::istream& in) {
  double last_arrival = 0.0;
  double k = 0.0;
  if (!interarrival_.Restore(in) || !cost_per_comparison_.Restore(in) ||
      !serial::ReadF64(in, &last_arrival) || !serial::ReadF64(in, &k)) {
    return false;
  }
  last_arrival_ = last_arrival;
  k_ = k;
  return true;
}

size_t AdaptiveK::FindK() {
  if (!interarrival_.empty() && !cost_per_comparison_.empty() &&
      cost_per_comparison_.Mean() > 0.0) {
    const double target =
        interarrival_.Mean() * kTargetUtilization / cost_per_comparison_.Mean();
    k_ = (1.0 - kGain) * k_ + kGain * target;
  }
  const double lo = static_cast<double>(options_.min_k);
  const double hi = static_cast<double>(options_.max_k);
  k_ = std::clamp(k_, lo, hi);
  obs::GaugeSet(k_gauge_, k_);
  return static_cast<size_t>(k_);
}

}  // namespace pier
