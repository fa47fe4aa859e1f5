// The benchmark's own arithmetic, kept free of pier types so that
// stats_test.cc can check it on hand-computed inputs: percentiles over
// raw samples (with the rule for which tail a sample supports), the
// progressive-recall summaries pc_auc and pc_half_s, batch-timed call
// latency, the offline union-find that served clusters are checked
// against, and the verdict-stream digest.

#ifndef PIERBENCH_STATS_H_
#define PIERBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

namespace pierbench {

// A percentile is reported only when at least this many samples lie
// beyond it; with fewer, the "tail" is a handful of outliers.
inline constexpr size_t kMinSamplesBeyond = 10;

// 1-based nearest rank of quantile q in n samples: the smallest rank r
// with r >= q * n. Computed in integer per-mille so 0.99 * 1000 is
// exactly 990, not 990.0000000001.
inline size_t NearestRank(size_t n, double q) {
  const uint64_t permille = static_cast<uint64_t>(std::llround(q * 1000.0));
  const uint64_t rank = (permille * n + 999) / 1000;
  return static_cast<size_t>(std::clamp<uint64_t>(rank, 1, n));
}

// Nearest-rank percentile of raw samples, or nullopt when fewer than
// kMinSamplesBeyond samples lie beyond it (the sample cannot support
// that tail) or there are no samples.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const size_t rank = NearestRank(n, q);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

// The highest of p50/p90/p99/p99.9 that n samples support, or 0 when
// not even the median is supported.
inline double HighestSupportedQuantile(size_t n) {
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    if (n > 0 && n - NearestRank(n, q) >= kMinSamplesBeyond) return q;
  }
  return 0.0;
}

// Median for the few per-repetition values of one run (mean of the two
// middle values when the count is even); 0 for no values.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Area under the pair-completeness curve over comparisons, divided by
// the budget (Fig. 5 in one number). found_at[i] is the 1-based count
// of executed comparisons after which the i-th true match was known,
// so PC(c) = #{i : found_at[i] <= c} / truth, and the result is
// (1 / budget) * sum over c = 1..budget of PC(c). A run that stops
// before spending its budget keeps its final PC for the remainder.
inline double PcAuc(const std::vector<uint64_t>& found_at, uint64_t budget,
                    uint64_t truth) {
  if (budget == 0 || truth == 0) return 0.0;
  long double area = 0.0L;
  for (const uint64_t c : found_at) {
    if (c <= budget) area += static_cast<long double>(budget - c + 1);
  }
  return static_cast<double>(area / (static_cast<long double>(truth) *
                                     static_cast<long double>(budget)));
}

// Wall time until half of the run's true matches were found (Fig. 4 in
// one number): the ceil(n / 2)-th smallest discovery time; 0 when no
// true match was found.
inline double HalfTime(std::vector<double> times) {
  if (times.empty()) return 0.0;
  const size_t k = (times.size() + 1) / 2;
  std::nth_element(times.begin(), times.begin() + (k - 1), times.end());
  return times[k - 1];
}

// Times `batch` consecutive calls call(0) .. call(batch - 1) with two
// clock reads around the whole batch and returns the latency per call
// in the clock's unit. A single query takes tens of nanoseconds, close
// to the clock's own cost and resolution; timing a batch spreads both
// over many calls.
template <typename Clock, typename Call>
double BatchPerCall(size_t batch, Clock&& now, Call&& call) {
  const auto start = now();
  for (size_t i = 0; i < batch; ++i) call(i);
  const auto end = now();
  return static_cast<double>(end - start) / static_cast<double>(batch);
}

// Offline union-find over dense ids; roots carry the smallest member
// id, which is the canonical cluster id the serving index reports.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), uint32_t{0});
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  // Links the two roots under the smaller id, so Find returns the
  // component minimum.
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<uint32_t> parent_;
};

// Number of ids whose served cluster id differs from the offline
// partition of `edges` over ids [0, n): a live id must be served the
// smallest id of its component, a dead id (live[id] == 0) must be
// served `dead_id`. Edges with a dead endpoint are ignored, as the
// serving index ignores them.
template <typename Served>
size_t ClusterMismatches(
    size_t n, const std::vector<std::pair<uint32_t, uint32_t>>& edges,
    const std::vector<uint8_t>& live, uint32_t dead_id, Served&& served) {
  UnionFind uf(n);
  for (const auto& [a, b] : edges) {
    if (live[a] != 0 && live[b] != 0) uf.Union(a, b);
  }
  size_t mismatches = 0;
  for (uint32_t id = 0; id < n; ++id) {
    const uint32_t expected = live[id] != 0 ? uf.Find(id) : dead_id;
    if (served(id) != expected) ++mismatches;
  }
  return mismatches;
}

// Order-sensitive digest of a verdict stream: two runs that executed
// the same comparisons in the same order with the same outcomes agree.
inline uint64_t DigestStep(uint64_t h, uint32_t x, uint32_t y, bool verdict) {
  auto mix = [](uint64_t v) {
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
    return v ^ (v >> 31);
  };
  const uint64_t item = (static_cast<uint64_t>(x) << 32) | y;
  return mix(h ^ mix(item + (verdict ? 0x9e3779b97f4a7c15ULL : 0)));
}

}  // namespace pierbench

#endif  // PIERBENCH_STATS_H_
