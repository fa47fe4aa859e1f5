#include "similarity/parallel_executor.h"

#include <algorithm>
#include <future>
#include <utility>

#include "obs/scoped_timer.h"
#include "similarity/similarity_kernels.h"
#include "util/check.h"

namespace pier {

namespace {

// Matches batch[begin, end) into verdicts[begin, end). `resolve` maps
// a ProfileId to its profile; it is called from worker threads and
// must be safe for concurrent reads. One SimilarityScratch per range
// (= per worker shard): the kernels allocate only while it warms up.
template <typename Resolve>
void MatchRange(const Matcher& matcher, const std::vector<Comparison>& batch,
                size_t begin, size_t end, const Resolve& resolve,
                MatchVerdict* verdicts) {
  SimilarityScratch scratch;
  for (size_t i = begin; i < end; ++i) {
    const EntityProfile& a = resolve(batch[i].x);
    const EntityProfile& b = resolve(batch[i].y);
    verdicts[i].is_match = matcher.Verdict(a, b, &scratch);
    verdicts[i].cost_units = matcher.CostUnits(a, b);
  }
}

template <typename Resolve>
std::vector<MatchVerdict> ExecuteImpl(const Matcher& matcher, ThreadPool* pool,
                                      size_t min_shard,
                                      const std::vector<Comparison>& batch,
                                      const Resolve& resolve) {
  std::vector<MatchVerdict> verdicts(batch.size());
  const size_t n = batch.size();
  if (n == 0) return verdicts;

  size_t shards = pool == nullptr ? 1 : pool->size();
  shards = std::min(shards, std::max<size_t>(1, n / min_shard));
  if (shards <= 1) {
    MatchRange(matcher, batch, 0, n, resolve, verdicts.data());
    return verdicts;
  }

  // Contiguous even sharding; shard s covers [s*per + min(s, extra),
  // ...). Each worker writes only its own slice of `verdicts`, so the
  // emission order is preserved by construction.
  const size_t per = n / shards;
  const size_t extra = n % shards;
  std::vector<std::future<void>> pending;
  pending.reserve(shards - 1);
  size_t begin = 0;
  size_t first_end = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t end = begin + per + (s < extra ? 1 : 0);
    if (s == 0) {
      first_end = end;  // shard 0 runs on the calling thread below
    } else {
      pending.push_back(pool->Submit([&matcher, &batch, begin, end, &resolve,
                                      out = verdicts.data()] {
        MatchRange(matcher, batch, begin, end, resolve, out);
      }));
    }
    begin = end;
  }
  // Every shard must be joined before unwinding: the workers hold
  // pointers into `verdicts`. The first failure (inline shard or pool
  // task) is rethrown once all shards have finished.
  std::exception_ptr first_error;
  try {
    MatchRange(matcher, batch, 0, first_end, resolve, verdicts.data());
  } catch (...) {
    first_error = std::current_exception();
  }
  for (std::future<void>& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return verdicts;
}

}  // namespace

ParallelMatchExecutor::ParallelMatchExecutor(const Matcher* matcher,
                                             size_t num_threads,
                                             obs::MetricsRegistry* metrics)
    : matcher_(matcher), num_threads_(std::max<size_t>(1, num_threads)) {
  PIER_CHECK(matcher_ != nullptr);
  if (num_threads_ > 1) pool_ = std::make_unique<ThreadPool>(num_threads_);
  if (metrics != nullptr) {
    batches_metric_ = metrics->GetCounter("executor.batches");
    comparisons_metric_ = metrics->GetCounter("executor.comparisons");
    sharded_batches_metric_ = metrics->GetCounter("executor.sharded_batches");
    batch_ns_metric_ = metrics->GetHistogram("executor.batch_ns");
  }
}

ParallelMatchExecutor::~ParallelMatchExecutor() = default;

template <typename Resolve>
std::vector<MatchVerdict> ParallelMatchExecutor::Run(
    const std::vector<Comparison>& batch, const Resolve& resolve) const {
  const obs::ScopedTimer timer(batch_ns_metric_);
  obs::CounterAdd(batches_metric_);
  obs::CounterAdd(comparisons_metric_, batch.size());
  if (pool_ != nullptr && batch.size() >= 2 * kMinShardSize) {
    obs::CounterAdd(sharded_batches_metric_);
  }
  return ExecuteImpl(*matcher_, pool_.get(), kMinShardSize, batch, resolve);
}

std::vector<MatchVerdict> ParallelMatchExecutor::Execute(
    const std::vector<Comparison>& batch, const ProfileStore& profiles) const {
  return Run(batch, [&profiles](ProfileId id) -> const EntityProfile& {
    return profiles.Get(id);
  });
}

std::vector<MatchVerdict> ParallelMatchExecutor::Execute(
    const std::vector<Comparison>& batch, const ProfileLookup& lookup) const {
  PIER_CHECK(lookup != nullptr);
  return Run(batch, lookup);
}

}  // namespace pier
