// Parallel match-execution engine: shards a batch of prioritized
// comparisons across a fixed ThreadPool, runs the matcher's verdict
// kernels concurrently, and returns the verdicts **in emission order**
// — the verdict at index i always corresponds to batch[i], regardless
// of thread count. Downstream consumers (progressive-curve accounting,
// verdict feedback) therefore see a bit-identical stream to the
// sequential path, so PC-over-time curves do not depend on the number
// of execution threads.
//
// Matching runs Matcher::Verdict, the threshold-only kernel path
// (bounded edit-distance kernels, size-filtered set similarity), with
// one SimilarityScratch per worker shard (no per-comparison
// allocation). Its is_match stream is identical to thresholding the
// naive Matcher::Similarity; no consumer needs the raw score.
//
// Profile reads are lock-free: the executor only needs `const
// EntityProfile&` access, and the chunked ProfileStore guarantees
// stable addresses under concurrent ingest (see model/profile_store.h).
//
// With num_threads <= 1 (or batches too small to be worth sharding)
// the executor runs inline on the calling thread and spawns nothing.

#ifndef PIER_SIMILARITY_PARALLEL_EXECUTOR_H_
#define PIER_SIMILARITY_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "model/comparison.h"
#include "model/entity_profile.h"
#include "model/profile_store.h"
#include "obs/metrics.h"
#include "similarity/matcher.h"
#include "util/thread_pool.h"

namespace pier {

class ParallelMatchExecutor {
 public:
  using ProfileLookup = std::function<const EntityProfile&(ProfileId)>;

  // `matcher` must outlive this object. `num_threads` <= 1 selects the
  // inline (sequential) path; otherwise a dedicated pool of
  // `num_threads` workers is spawned for the executor's lifetime.
  // `metrics`, when non-null, receives the executor's `executor.*`
  // stage metrics (batch counts/latency, sharding decisions).
  ParallelMatchExecutor(const Matcher* matcher, size_t num_threads,
                        obs::MetricsRegistry* metrics = nullptr);
  ~ParallelMatchExecutor();

  ParallelMatchExecutor(const ParallelMatchExecutor&) = delete;
  ParallelMatchExecutor& operator=(const ParallelMatchExecutor&) = delete;

  size_t num_threads() const { return num_threads_; }
  const Matcher& matcher() const { return *matcher_; }

  // Matches every comparison in `batch`; the result has batch.size()
  // entries with result[i] the verdict for batch[i] (deterministic
  // emission order). Profiles are resolved through `profiles` /
  // `lookup`, which must stay valid and readable for already-ingested
  // ids for the duration of the call.
  std::vector<MatchVerdict> Execute(const std::vector<Comparison>& batch,
                                    const ProfileStore& profiles) const;
  std::vector<MatchVerdict> Execute(const std::vector<Comparison>& batch,
                                    const ProfileLookup& lookup) const;

 private:
  // Batches smaller than kMinShardSize * 2 are matched inline: the
  // pool handoff costs more than the matching itself.
  static constexpr size_t kMinShardSize = 32;

  const Matcher* matcher_;
  size_t num_threads_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ <= 1

  template <typename Resolve>
  std::vector<MatchVerdict> Run(const std::vector<Comparison>& batch,
                                const Resolve& resolve) const;

  // `executor.*` metrics; null when un-instrumented.
  obs::Counter* batches_metric_ = nullptr;
  obs::Counter* comparisons_metric_ = nullptr;
  obs::Counter* sharded_batches_metric_ = nullptr;
  obs::Histogram* batch_ns_metric_ = nullptr;
};

}  // namespace pier

#endif  // PIER_SIMILARITY_PARALLEL_EXECUTOR_H_
