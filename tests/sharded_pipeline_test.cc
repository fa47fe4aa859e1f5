// Tests for the sharded worker/combiner ingest path: the routing
// invariant (every block key owned by exactly one shard) must make the
// delivered verdict set and the final clusters identical for every
// shard count -- including the N = 1 case RealtimePipeline wraps --
// and the bounded queues, multi-producer ingest, and checkpoint/resume
// must hold up under concurrency (this binary runs under TSan in CI).

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "persist/checkpoint_manager.h"
#include "similarity/parallel_executor.h"
#include "stream/shard_queue.h"
#include "stream/sharded_pipeline.h"

namespace pier {
namespace {

// ---------------------------------------------------------------------------
// ShardQueue

TEST(ShardQueueTest, FifoOrderAndTryPop) {
  ShardQueue<int> queue(4);
  int out = 0;
  EXPECT_FALSE(queue.TryPop(&out));
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  EXPECT_TRUE(queue.Push(3));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(queue.TryPop(&out));
}

TEST(ShardQueueTest, CloseDrainsQueuedItemsThenRejects) {
  ShardQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(7));
  queue.Close();
  EXPECT_FALSE(queue.Push(8));
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));  // queued before the close: delivered
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(queue.Pop(&out));  // closed and empty
  EXPECT_FALSE(queue.TryPop(&out));
}

TEST(ShardQueueTest, PushBlocksOnFullQueueUntilPop) {
  ShardQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  std::atomic<bool> second_push_done{false};
  uint64_t wait_ns = 0;
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2, &wait_ns));
    second_push_done.store(true);
  });
  // The producer must be blocked: the queue is at capacity.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_push_done.load());
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  producer.join();
  EXPECT_TRUE(second_push_done.load());
  EXPECT_GT(wait_ns, 0u);  // the blocked time was measured
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
}

TEST(ShardQueueTest, CloseWakesBlockedProducer) {
  ShardQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  std::thread producer([&] {
    int item = 2;
    EXPECT_FALSE(queue.Push(item));  // woken by Close, rejected
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  producer.join();
}

// Property: under concurrent producers, consumers, and a mid-stream
// Close(), every successfully pushed item is delivered exactly once
// (no loss, no duplication), per-producer successes form a prefix of
// that producer's sequence, and nothing is accepted after the close.
TEST(ShardQueueTest, CloseDrainPropertyUnderConcurrency) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 400;
  ShardQueue<std::pair<int, int>> queue(4);

  std::array<std::atomic<int>, kProducers> pushed{};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (!queue.Push({p, i})) {
          // Closed: every later push must also be rejected, so the
          // successes are exactly the prefix [0, i).
          EXPECT_FALSE(queue.Push({p, i}));
          return;
        }
        pushed[p].fetch_add(1);
      }
    });
  }
  std::mutex consumed_mu;
  std::vector<std::vector<int>> consumed(kProducers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::pair<int, int> item;
      std::vector<std::vector<int>> local(kProducers);
      while (queue.Pop(&item)) local[item.first].push_back(item.second);
      std::lock_guard<std::mutex> lock(consumed_mu);
      for (int p = 0; p < kProducers; ++p) {
        consumed[p].insert(consumed[p].end(), local[p].begin(),
                           local[p].end());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  std::pair<int, int> leftover;
  EXPECT_FALSE(queue.TryPop(&leftover));  // closed and fully drained
  for (int p = 0; p < kProducers; ++p) {
    // Delivered set == pushed prefix, each item exactly once.
    std::vector<int> seqs = consumed[p];
    std::sort(seqs.begin(), seqs.end());
    ASSERT_EQ(static_cast<int>(seqs.size()), pushed[p].load()) << "p=" << p;
    for (int i = 0; i < static_cast<int>(seqs.size()); ++i) {
      ASSERT_EQ(seqs[i], i) << "p=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Shard-vs-single equivalence

// Equivalence requires a deterministic executed set: the exact
// executed filter (no Bloom false positives, which are
// emission-order-dependent) and no block purging (purge timing depends
// on ingest cadence, which differs per shard count).
PierOptions EquivalenceOptions(DatasetKind kind) {
  PierOptions options;
  options.kind = kind;
  options.strategy = PierStrategy::kIPes;
  options.exact_executed_filter = true;
  options.blocking.max_block_size = 0;
  return options;
}

struct VerdictLog {
  std::mutex mu;
  std::set<uint64_t> executed;
  std::set<uint64_t> matched;
  uint64_t delivered = 0;
};

// The single-engine reference: one PierPipeline driven to exhaustion,
// the ground truth the sharded runs must reproduce exactly.
void RunReference(const Dataset& d, size_t increments, const Matcher& matcher,
                  VerdictLog* log) {
  PierPipeline pipeline(EquivalenceOptions(d.kind));
  ParallelMatchExecutor executor(&matcher, 1, nullptr);
  for (const auto& inc : SplitIntoIncrements(d, increments)) {
    std::vector<EntityProfile> profiles(
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    pipeline.Ingest(std::move(profiles));
  }
  pipeline.NotifyStreamEnd();
  for (;;) {
    const std::vector<Comparison> batch = pipeline.EmitBatch(1024);
    if (batch.empty()) break;
    const std::vector<MatchVerdict> verdicts =
        executor.Execute(batch, pipeline.profiles());
    for (size_t i = 0; i < batch.size(); ++i) {
      log->executed.insert(batch[i].Key());
      ++log->delivered;
      if (verdicts[i].is_match) log->matched.insert(batch[i].Key());
    }
  }
}

void RunSharded(const Dataset& d, size_t increments, const Matcher& matcher,
                size_t shard_count,
                std::map<ProfileId, ProfileId>* final_clusters,
                VerdictLog* log) {
  ShardedOptions options;
  options.pipeline = EquivalenceOptions(d.kind);
  options.shard_count = shard_count;
  options.queue_capacity = 4;  // small: exercises backpressure
  options.on_verdict = [log](ProfileId a, ProfileId b, bool) {
    std::lock_guard<std::mutex> lock(log->mu);
    log->executed.insert(PairKey(a, b));
    ++log->delivered;
  };
  ShardedPipeline pipeline(options, &matcher,
                           [log](ProfileId a, ProfileId b) {
                             std::lock_guard<std::mutex> lock(log->mu);
                             log->matched.insert(PairKey(a, b));
                           });
  for (const auto& inc : SplitIntoIncrements(d, increments)) {
    std::vector<EntityProfile> profiles(
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    EXPECT_TRUE(pipeline.Ingest(std::move(profiles)));
  }
  pipeline.NotifyStreamEnd();
  pipeline.Drain();
  if (final_clusters != nullptr) {
    for (ProfileId id = 0; id < d.profiles.size(); ++id) {
      (*final_clusters)[id] = pipeline.ClusterIdOf(id);
    }
  }
  EXPECT_EQ(pipeline.clusters().universe_size(), d.profiles.size());
}

TEST(ShardedPipelineTest, EquivalentToSinglePipelineCleanClean) {
  BibliographicOptions data_options;
  data_options.source0_count = 90;
  data_options.source1_count = 80;
  const Dataset d = GenerateBibliographic(data_options);
  const JaccardMatcher matcher(0.35);

  VerdictLog reference;
  RunReference(d, 9, matcher, &reference);
  ASSERT_FALSE(reference.executed.empty());
  ASSERT_FALSE(reference.matched.empty());

  std::map<ProfileId, ProfileId> one_shard_clusters;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::map<ProfileId, ProfileId> clusters;
    VerdictLog log;
    RunSharded(d, 9, matcher, shards, &clusters, &log);
    // Same executed comparison set, each delivered exactly once, and
    // the same match set -- the routing invariant at work.
    EXPECT_EQ(log.executed, reference.executed);
    EXPECT_EQ(log.delivered, log.executed.size());
    EXPECT_EQ(log.matched, reference.matched);
    if (shards == 1) {
      one_shard_clusters = clusters;
    } else {
      EXPECT_EQ(clusters, one_shard_clusters);
    }
  }
}

TEST(ShardedPipelineTest, EquivalentToSinglePipelineDirty) {
  CensusOptions data_options;
  data_options.num_records = 260;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.4);

  VerdictLog reference;
  RunReference(d, 13, matcher, &reference);
  ASSERT_FALSE(reference.executed.empty());

  std::map<ProfileId, ProfileId> one_shard_clusters;
  for (const size_t shards : {size_t{1}, size_t{3}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::map<ProfileId, ProfileId> clusters;
    VerdictLog log;
    RunSharded(d, 13, matcher, shards, &clusters, &log);
    EXPECT_EQ(log.executed, reference.executed);
    EXPECT_EQ(log.delivered, log.executed.size());
    EXPECT_EQ(log.matched, reference.matched);
    if (shards == 1) {
      one_shard_clusters = clusters;
    } else {
      EXPECT_EQ(clusters, one_shard_clusters);
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan money test)

TEST(ShardedPipelineTest, MultiProducerIngestWithConcurrentQueries) {
  CensusOptions data_options;
  data_options.num_records = 400;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.4);

  ShardedOptions options;
  options.pipeline.kind = d.kind;
  options.pipeline.strategy = PierStrategy::kIPes;
  options.shard_count = 2;
  options.queue_capacity = 2;  // tiny: producers hit backpressure
  std::atomic<uint64_t> callbacks{0};
  ShardedPipeline pipeline(options, &matcher,
                           [&](ProfileId, ProfileId) { ++callbacks; });

  // Four producers race increments in; the router assigns dense ids
  // (ground-truth identity is irrelevant here -- this test is about
  // memory safety and accounting, not quality).
  constexpr size_t kProducers = 4;
  std::vector<std::thread> producers;
  std::atomic<size_t> next_chunk{0};
  const auto increments = SplitIntoIncrements(d, 40);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (;;) {
        const size_t chunk = next_chunk.fetch_add(1);
        if (chunk >= increments.size()) return;
        std::vector<EntityProfile> profiles;
        for (size_t i = increments[chunk].begin; i < increments[chunk].end;
             ++i) {
          EntityProfile profile = d.profiles[i];
          profile.id = kInvalidProfileId;  // router assigns
          profiles.push_back(std::move(profile));
        }
        EXPECT_TRUE(pipeline.Ingest(std::move(profiles)));
      }
    });
  }
  std::atomic<bool> stop_queries{false};
  std::thread querier([&] {
    uint64_t checksum = 0;
    while (!stop_queries.load()) {
      const size_t universe = pipeline.clusters().universe_size();
      for (ProfileId id = 0; id < universe; id += 7) {
        checksum += pipeline.ClusterIdOf(id);
        checksum += pipeline.ClusterOf(id).members.size();
      }
    }
    EXPECT_GE(checksum, 0u);
  });
  for (auto& producer : producers) producer.join();
  pipeline.Drain();
  stop_queries.store(true);
  querier.join();

  EXPECT_EQ(pipeline.clusters().universe_size(), d.profiles.size());
  EXPECT_EQ(pipeline.matches_found(), callbacks.load());
  EXPECT_GE(pipeline.comparisons_processed(), pipeline.matches_found());
  // Post-drain queries are stable.
  for (ProfileId id = 0; id < d.profiles.size(); ++id) {
    EXPECT_LE(pipeline.ClusterIdOf(id), id);
  }
}

TEST(ShardedPipelineTest, DestructionWhileBusyIsSafe) {
  CensusOptions data_options;
  data_options.num_records = 300;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.4);
  ShardedOptions options;
  options.pipeline.kind = d.kind;
  options.shard_count = 3;
  options.queue_capacity = 2;
  {
    ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
    std::vector<EntityProfile> profiles = d.profiles;
    EXPECT_TRUE(pipeline.Ingest(std::move(profiles)));
    // Destroyed mid-stream: workers must stop cleanly.
  }
}

// ---------------------------------------------------------------------------
// Lifecycle rejection diagnostics

TEST(ShardedPipelineTest, IngestAfterStopIsRejected) {
  const JaccardMatcher matcher(0.5);
  ShardedOptions options;
  options.shard_count = 2;
  ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
  EXPECT_TRUE(pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}})}));
  pipeline.Drain();
  pipeline.Stop();
  pipeline.Stop();  // idempotent
  EXPECT_FALSE(pipeline.Ingest({EntityProfile(1, 0, {{"n", "alpha beta"}})}));
  pipeline.Drain();  // returns immediately after Stop
}

// A matcher that parks the shard worker inside the match stage until
// released, so a test can hold a microbatch queue at capacity and race
// Stop() against a backpressure-blocked Ingest.
class BlockingMatcher : public Matcher {
 public:
  BlockingMatcher() : Matcher(0.5) {}

  double Similarity(const EntityProfile&, const EntityProfile&) const override {
    entered_.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return released_; });
    return 1.0;
  }
  uint64_t CostUnits(const EntityProfile&,
                     const EntityProfile&) const override {
    return 1;
  }
  const char* name() const override { return "BLOCK"; }

  void WaitUntilEntered() const {
    while (!entered_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void Release() const {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::atomic<bool> entered_{false};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool released_ = false;
};

// Regression: a Stop() racing an Ingest whose Push was blocked on
// backpressure used to drop the microbatch while Ingest still reported
// success (ingest counter bumped, checkpoint cadence advanced, latency
// sample recorded -- for an increment that never reached a worker).
// The rejection must be surfaced to the producer.
TEST(ShardedPipelineTest, StopDuringBackpressuredIngestReportsFailure) {
  const BlockingMatcher matcher;
  ShardedOptions options;
  options.shard_count = 1;
  options.queue_capacity = 1;
  ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
  // First increment: produces one comparison; the worker pops it and
  // parks inside the matcher, so nothing further is popped.
  ASSERT_TRUE(pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}}),
                               EntityProfile(1, 0, {{"n", "alpha beta"}})}));
  matcher.WaitUntilEntered();
  // Second increment: fills the (now empty) queue back to capacity.
  ASSERT_TRUE(pipeline.Ingest({EntityProfile(2, 0, {{"n", "gamma delta"}})}));
  // Third increment: blocks in Push behind the full queue. The worker
  // cannot drain it -- it is parked in the matcher -- so this Ingest
  // stays blocked until Stop() closes the queues and rejects it.
  const uint64_t ingests_before = pipeline.ingests();
  std::atomic<int> third_result{-1};
  std::thread producer([&] {
    third_result.store(
        pipeline.Ingest({EntityProfile(3, 0, {{"n", "epsilon zeta"}})}) ? 1
                                                                        : 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread stopper([&] { pipeline.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  matcher.Release();  // un-park the worker so Stop() can join it
  stopper.join();
  producer.join();
  // The dropped increment was reported as a failure, and none of the
  // success bookkeeping ran for it.
  EXPECT_EQ(third_result.load(), 0);
  EXPECT_EQ(pipeline.ingests(), ingests_before);
}

TEST(ShardedPipelineTest, RestoreShardCountMismatchLeavesPipelineUsable) {
  const JaccardMatcher matcher(0.5);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pier_shard_mismatch_test")
          .string();
  std::filesystem::remove_all(dir);
  std::string snapshot_path;
  {
    ShardedOptions options;
    options.shard_count = 2;
    ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
    pipeline.EnableCheckpoints(dir, /*every=*/1, /*keep=*/1);
    EXPECT_TRUE(pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}}),
                                 EntityProfile(1, 0, {{"n", "alpha beta"}})}));
    pipeline.Drain();
    auto latest = persist::CheckpointManager::FindLatest(dir);
    ASSERT_TRUE(latest.has_value());
    snapshot_path = *latest;
  }
  ShardedOptions options;
  options.shard_count = 4;  // mismatch
  ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
  std::ifstream in(snapshot_path, std::ios::binary);
  std::string error;
  EXPECT_FALSE(pipeline.RestoreFromSnapshot(in, &error));
  EXPECT_NE(error.find("shard"), std::string::npos);
  // Rejected up front, before any mutation: still usable.
  EXPECT_TRUE(pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}})}));
  pipeline.Drain();
  std::filesystem::remove_all(dir);
}

TEST(ShardedPipelineTest, FailedMidRestorePoisonsPipeline) {
  const JaccardMatcher matcher(0.5);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pier_shard_poison_test")
          .string();
  std::filesystem::remove_all(dir);
  std::string snapshot_path;
  {
    ShardedOptions options;
    options.shard_count = 2;
    options.pipeline.strategy = PierStrategy::kIPes;
    ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
    pipeline.EnableCheckpoints(dir, /*every=*/1, /*keep=*/1);
    EXPECT_TRUE(pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}}),
                                 EntityProfile(1, 0, {{"n", "alpha beta"}})}));
    pipeline.Drain();
    auto latest = persist::CheckpointManager::FindLatest(dir);
    ASSERT_TRUE(latest.has_value());
    snapshot_path = *latest;
  }
  // Same shard count, different per-shard options: the global sections
  // restore fine, then shard 0's fingerprint check fails -- a failure
  // *after* mutation began, so the pipeline must poison itself.
  ShardedOptions options;
  options.shard_count = 2;
  options.pipeline.strategy = PierStrategy::kIPcs;
  ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
  std::ifstream in(snapshot_path, std::ios::binary);
  std::string error;
  EXPECT_FALSE(pipeline.RestoreFromSnapshot(in, &error));
  EXPECT_NE(error.find("poisoned"), std::string::npos) << error;
  EXPECT_FALSE(pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}})}));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume equivalence

TEST(ShardedPipelineTest, CheckpointAndResumeMatchesUninterruptedRun) {
  BibliographicOptions data_options;
  data_options.source0_count = 70;
  data_options.source1_count = 60;
  const Dataset d = GenerateBibliographic(data_options);
  const JaccardMatcher matcher(0.35);
  const size_t kIncrements = 10;
  constexpr size_t kShards = 2;

  // Uninterrupted reference run.
  std::map<ProfileId, ProfileId> expected_clusters;
  VerdictLog unused;
  RunSharded(d, kIncrements, matcher, kShards, &expected_clusters, &unused);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "pier_shard_resume_test")
          .string();
  std::filesystem::remove_all(dir);
  const auto increments = SplitIntoIncrements(d, kIncrements);
  auto increment_profiles = [&](size_t chunk) {
    return std::vector<EntityProfile>(
        d.profiles.begin() + static_cast<ptrdiff_t>(increments[chunk].begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(increments[chunk].end));
  };
  auto make_options = [&] {
    ShardedOptions options;
    options.pipeline = EquivalenceOptions(d.kind);
    options.shard_count = kShards;
    return options;
  };
  {
    ShardedPipeline pipeline(make_options(), &matcher,
                             [](ProfileId, ProfileId) {});
    pipeline.EnableCheckpoints(dir, /*every=*/3, /*keep=*/2);
    for (size_t chunk = 0; chunk < 6; ++chunk) {
      ASSERT_TRUE(pipeline.Ingest(increment_profiles(chunk)));
    }
    // Killed here (destructor mid-stream): the latest checkpoint holds
    // a consistent cut after some prefix of the increments.
  }
  auto latest = persist::CheckpointManager::FindLatest(dir);
  ASSERT_TRUE(latest.has_value());

  ShardedPipeline resumed(make_options(), &matcher,
                          [](ProfileId, ProfileId) {});
  std::ifstream in(*latest, std::ios::binary);
  std::string error;
  ASSERT_TRUE(resumed.RestoreFromSnapshot(in, &error)) << error;
  const uint64_t already_ingested = resumed.ingests();
  ASSERT_GT(already_ingested, 0u);
  ASSERT_LE(already_ingested, 6u);
  for (size_t chunk = already_ingested; chunk < kIncrements; ++chunk) {
    ASSERT_TRUE(resumed.Ingest(increment_profiles(chunk)));
  }
  resumed.NotifyStreamEnd();
  resumed.Drain();

  // Recovery-equivalence: the resumed run converges to the exact final
  // clusters of the uninterrupted run.
  EXPECT_EQ(resumed.clusters().universe_size(), d.profiles.size());
  for (ProfileId id = 0; id < d.profiles.size(); ++id) {
    EXPECT_EQ(resumed.ClusterIdOf(id), expected_clusters[id]) << "id=" << id;
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(ShardedPipelineTest, ExportsShardAndFreshnessMetrics) {
  obs::MetricsRegistry registry;
  CensusOptions data_options;
  data_options.num_records = 120;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.4);

  ShardedOptions options;
  options.pipeline.kind = d.kind;
  options.pipeline.metrics = &registry;
  options.shard_count = 2;
  options.queue_capacity = 1;  // force measurable backpressure
  {
    ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
    for (const auto& inc : SplitIntoIncrements(d, 12)) {
      std::vector<EntityProfile> profiles(
          d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
          d.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
      ASSERT_TRUE(pipeline.Ingest(std::move(profiles)));
    }
    pipeline.NotifyStreamEnd();
    pipeline.Drain();
    EXPECT_EQ(registry.GetCounter("realtime.ingests")->Value(), 12u);
    EXPECT_GT(registry.GetCounter("shard.microbatches")->Value(), 0u);
    EXPECT_GT(registry.GetCounter("shard.verdict_batches")->Value(), 0u);
    // Quiescent after Drain: nothing queued, every ingest closed out.
    // Ingests closed out by a verdict delivery land in the freshness
    // histogram; ingests that never produced a verdict are closed out
    // at drain time into the quiescence histogram instead of polluting
    // the freshness percentiles -- together they account for every
    // ingest exactly once.
    EXPECT_EQ(registry.GetGauge("realtime.queue_depth")->Value(), 0.0);
    EXPECT_EQ(registry.GetGauge("realtime.pending_ingests")->Value(), 0.0);
    EXPECT_EQ(
        registry.GetHistogram("realtime.ingest_to_first_verdict_ns")->Count() +
            registry.GetHistogram("realtime.ingest_to_quiescence_ns")->Count(),
        12u);
    EXPECT_GT(
        registry.GetHistogram("realtime.ingest_to_first_verdict_ns")->Count(),
        0u);
    EXPECT_EQ(registry.GetGauge("realtime.worker_idle")->Value(), 1.0);
    // Per-shard gauges exist for both shards.
    EXPECT_EQ(registry.GetGauge("shard.0.busy")->Value(), 0.0);
    EXPECT_EQ(registry.GetGauge("shard.1.busy")->Value(), 0.0);
  }
}

// Regression: drain used to close verdict-less ingests into the
// freshness histogram, so a stream of singleton profiles (no shared
// blocks, no comparisons, no verdicts) reported its entire
// time-to-shutdown as "ingest-to-first-verdict latency". Those samples
// now land in a separate quiescence histogram.
TEST(ShardedPipelineTest, DrainClosesOutVerdictlessIngestsSeparately) {
  obs::MetricsRegistry registry;
  const JaccardMatcher matcher(0.5);
  ShardedOptions options;
  options.pipeline.metrics = &registry;
  options.shard_count = 2;
  ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
  // Every profile's tokens are unique to it: every block is a
  // singleton, so no comparison is ever scheduled and no verdict is
  // ever delivered.
  for (ProfileId id = 0; id < 5; ++id) {
    const std::string text =
        "solo" + std::to_string(id) + " only" + std::to_string(id);
    ASSERT_TRUE(pipeline.Ingest({EntityProfile(id, 0, {{"n", text}})}));
  }
  pipeline.Drain();
  EXPECT_EQ(
      registry.GetHistogram("realtime.ingest_to_first_verdict_ns")->Count(),
      0u);
  EXPECT_EQ(
      registry.GetHistogram("realtime.ingest_to_quiescence_ns")->Count(), 5u);
  EXPECT_EQ(registry.GetGauge("realtime.pending_ingests")->Value(), 0.0);
}

}  // namespace
}  // namespace pier
