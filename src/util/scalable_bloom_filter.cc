#include "util/scalable_bloom_filter.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "util/check.h"
#include "util/counting_bloom_filter.h"
#include "util/serial.h"

namespace pier {

namespace {
constexpr double kLn2 = 0.6931471805599453;

// The constructor's preconditions, as a predicate Restore can reject
// on (a corrupt snapshot must never take the process down).
bool ValidOptions(const ScalableFilterOptions& o) {
  return o.initial_capacity > 0 && o.fp_rate > 0.0 && o.fp_rate < 1.0 &&
         o.growth > 1.0 && o.tightening > 0.0 && o.tightening < 1.0;
}

// The growth schedule: slice i's design capacity and error rate.
void SliceSchedule(const ScalableFilterOptions& o, size_t i, double* capacity,
                   double* error) {
  *capacity = static_cast<double>(o.initial_capacity) *
              std::pow(o.growth, static_cast<double>(i));
  *error = o.fp_rate * (1.0 - o.tightening) *
           std::pow(o.tightening, static_cast<double>(i));
}
}  // namespace

template <typename Slice>
ScalableFilter<Slice>::ScalableFilter(const Options& options)
    : options_(options) {
  PIER_CHECK(ValidOptions(options_));
  AddSlice();
}

template <typename Slice>
void ScalableFilter<Slice>::AddSlice() {
  double capacity = 0.0;
  double error = 0.0;
  SliceSchedule(options_, slices_.size(), &capacity, &error);
  slices_.push_back(
      std::make_unique<Slice>(static_cast<size_t>(capacity), error));
}

template <typename Slice>
void ScalableFilter<Slice>::Add(uint64_t key) {
  if (slices_.back()->AtCapacity()) AddSlice();
  slices_.back()->Add(key);
  ++num_insertions_;
}

template <typename Slice>
bool ScalableFilter<Slice>::MayContain(uint64_t key) const {
  for (auto it = slices_.rbegin(); it != slices_.rend(); ++it) {
    if ((*it)->MayContain(key)) return true;
  }
  return false;
}

template <typename Slice>
bool ScalableFilter<Slice>::TestAndAdd(uint64_t key) {
  if (MayContain(key)) return true;
  Add(key);
  return false;
}

template <typename Slice>
size_t ScalableFilter<Slice>::MemoryBytes() const {
  size_t total = 0;
  for (const auto& slice : slices_) total += slice->MemoryBytes();
  return total;
}

template <typename Slice>
size_t ScalableFilter<Slice>::ApproxMemoryBytes() const {
  return MemoryBytes() + slices_.capacity() * sizeof(std::unique_ptr<Slice>) +
         slices_.size() * sizeof(Slice);
}

template <typename Slice>
void ScalableFilter<Slice>::Snapshot(std::ostream& out) const {
  Slice::WriteFormatPrefix(out);
  serial::WriteU64(out, options_.initial_capacity);
  serial::WriteF64(out, options_.fp_rate);
  serial::WriteF64(out, options_.growth);
  serial::WriteF64(out, options_.tightening);
  serial::WriteU64(out, num_insertions_);
  if constexpr (kDeletable) serial::WriteU64(out, num_removals_);
  serial::WriteU64(out, slices_.size());
  for (const auto& slice : slices_) slice->Snapshot(out);
}

template <typename Slice>
bool ScalableFilter<Slice>::Restore(std::istream& in) {
  Options options;
  uint64_t initial_capacity = 0;
  uint64_t num_insertions = 0;
  uint64_t num_removals = 0;
  uint64_t num_slices = 0;
  if (!Slice::ReadFormatPrefix(in) || !serial::ReadU64(in, &initial_capacity) ||
      !serial::ReadF64(in, &options.fp_rate) ||
      !serial::ReadF64(in, &options.growth) ||
      !serial::ReadF64(in, &options.tightening) ||
      !serial::ReadU64(in, &num_insertions)) {
    return false;
  }
  if constexpr (kDeletable) {
    if (!serial::ReadU64(in, &num_removals)) return false;
  }
  if (!serial::ReadU64(in, &num_slices)) return false;
  options.initial_capacity = initial_capacity;
  if (!ValidOptions(options) || num_slices == 0 || num_slices > 64 ||
      num_removals > num_insertions) {
    return false;
  }
  std::vector<std::unique_ptr<Slice>> slices;
  slices.reserve(num_slices);
  uint64_t slice_insertions = 0;
  for (uint64_t i = 0; i < num_slices; ++i) {
    auto slice = Slice::FromSnapshot(in);
    if (slice == nullptr) return false;
    // Slice i must be sized exactly as the growth schedule would have
    // sized it, otherwise the snapshot was not produced by this
    // implementation. Evaluated arithmetically (no reference slice is
    // constructed) so a hostile snapshot cannot force a huge
    // allocation here; bounds on the doubles keep the casts defined.
    double capacity = 0.0;
    double error = 0.0;
    SliceSchedule(options, i, &capacity, &error);
    if (!(error > 0.0) || !(error < 1.0)) return false;
    if (!(capacity >= 1.0) || capacity > 1e18) return false;
    const size_t cap = static_cast<size_t>(capacity);
    const double m =
        std::ceil(-static_cast<double>(cap) * std::log(error) / (kLn2 * kLn2));
    if (!(m >= 0.0) || m > 1e18) return false;
    if (!slice->SizedFor(cap, error)) return false;
    // Add() only grows a new slice once the current one reached its
    // design capacity, so every non-final slice holds exactly its
    // expected_items insertions and the final slice at most that.
    if (i + 1 < num_slices) {
      if (slice->num_insertions() != slice->expected_items()) return false;
    } else if (slice->num_insertions() > slice->expected_items()) {
      return false;
    }
    slice_insertions += slice->num_insertions();
    slices.push_back(std::move(slice));
  }
  if (slice_insertions != num_insertions) return false;
  options_ = options;
  num_insertions_ = num_insertions;
  num_removals_ = num_removals;
  slices_ = std::move(slices);
  return true;
}

template class ScalableFilter<BloomFilter>;
template class ScalableFilter<CountingBloomFilter>;

}  // namespace pier
