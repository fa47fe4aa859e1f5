// Tests for the sharded ingest path: the routing invariant (every block
// key owned by exactly one shard) must make the delivered verdict set
// and the final clusters identical for every shard count and strategy
// -- including the N = 1 case RealtimePipeline wraps -- and the bounded
// queues, the serialized delivery step, multi-producer ingest, and
// checkpoint/resume must hold up under concurrency (this binary runs
// under TSan in CI).

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
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "persist/checkpoint_manager.h"
#include "persist/crc32c.h"
#include "persist/snapshot.h"
#include "similarity/parallel_executor.h"
#include "stream/shard_queue.h"
#include "stream/sharded_pipeline.h"
#include "strategy_test_name.h"
#include "util/serial.h"

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

// Equivalence requires a deterministic executed set: no block purging
// (purge timing depends on ingest cadence, which differs per shard
// count).
PierOptions EquivalenceOptions(DatasetKind kind, PierStrategy strategy) {
  PierOptions options;
  options.kind = kind;
  options.strategy = strategy;
  options.blocking.max_block_size = 0;
  return options;
}

struct VerdictLog {
  std::mutex mu;
  std::set<uint64_t> executed;
  std::set<uint64_t> matched;
  uint64_t delivered = 0;
  // Cross-shard echoes the delivery step dropped (sharded runs only).
  uint64_t suppressed = 0;
};

// The single-engine reference: one PierPipeline driven to exhaustion,
// the ground truth the sharded runs must reproduce exactly.
void RunReference(const Dataset& d, size_t increments, const Matcher& matcher,
                  PierStrategy strategy, VerdictLog* log) {
  PierPipeline pipeline(EquivalenceOptions(d.kind, strategy));
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
                PierStrategy strategy, size_t shard_count,
                std::map<ProfileId, ProfileId>* final_clusters,
                VerdictLog* log) {
  ShardedOptions options;
  options.pipeline = EquivalenceOptions(d.kind, strategy);
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
  log->suppressed = pipeline.duplicates_suppressed();
  if (final_clusters != nullptr) {
    for (ProfileId id = 0; id < d.profiles.size(); ++id) {
      (*final_clusters)[id] = pipeline.ClusterIdOf(id);
    }
  }
  EXPECT_EQ(pipeline.clusters().universe_size(), d.profiles.size());
}

// Every registered strategy through the equivalence and resume suites.
class ShardedStrategyTest : public ::testing::TestWithParam<PierStrategy> {};

TEST_P(ShardedStrategyTest, EquivalentToSinglePipelineCleanClean) {
  BibliographicOptions data_options;
  data_options.source0_count = 90;
  data_options.source1_count = 80;
  const Dataset d = GenerateBibliographic(data_options);
  const JaccardMatcher matcher(0.35);

  VerdictLog reference;
  RunReference(d, 9, matcher, GetParam(), &reference);
  ASSERT_FALSE(reference.executed.empty());
  ASSERT_FALSE(reference.matched.empty());

  std::map<ProfileId, ProfileId> one_shard_clusters;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::map<ProfileId, ProfileId> clusters;
    VerdictLog log;
    RunSharded(d, 9, matcher, GetParam(), shards, &clusters, &log);
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

TEST_P(ShardedStrategyTest, EquivalentToSinglePipelineDirty) {
  CensusOptions data_options;
  data_options.num_records = 260;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.4);

  VerdictLog reference;
  RunReference(d, 13, matcher, GetParam(), &reference);
  ASSERT_FALSE(reference.executed.empty());

  std::map<ProfileId, ProfileId> one_shard_clusters;
  for (const size_t shards : {size_t{1}, size_t{3}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::map<ProfileId, ProfileId> clusters;
    VerdictLog log;
    RunSharded(d, 13, matcher, GetParam(), shards, &clusters, &log);
    EXPECT_EQ(log.executed, reference.executed);
    EXPECT_EQ(log.delivered, log.executed.size());
    EXPECT_EQ(log.matched, reference.matched);
    if (shards == 1) {
      one_shard_clusters = clusters;
    } else {
      EXPECT_EQ(clusters, one_shard_clusters);
      // A pair whose shared tokens have different owners is generated
      // by each owning shard: the delivery filter drops the echoes, so
      // each pair is still delivered once (above).
      EXPECT_GT(log.suppressed, 0u);
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

// The delivery contract at N > 1: four shard workers, each matching on
// two threads, deliver one batch at a time -- on_verdict and on_match
// never overlap -- and every pair a shard emitted is either delivered
// once or counted as a cross-shard echo.
TEST(ShardedPipelineTest, DeliveryIsSerializedAndAccountsForEveryEmittedPair) {
  obs::MetricsRegistry registry;
  CensusOptions data_options;
  data_options.num_records = 400;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.4);

  std::atomic<int> in_flight{0};
  std::atomic<uint64_t> overlaps{0};
  std::atomic<uint64_t> verdicts{0};
  std::atomic<uint64_t> matches{0};
  auto enter = [&] {
    if (in_flight.fetch_add(1) != 0) ++overlaps;
    std::this_thread::yield();  // widen the window a second caller needs
  };
  auto leave = [&] { in_flight.fetch_sub(1); };
  ShardedOptions options;
  options.pipeline.kind = d.kind;
  options.pipeline.execution_threads = 2;
  options.pipeline.metrics = &registry;
  options.shard_count = 4;
  options.on_verdict = [&](ProfileId, ProfileId, bool) {
    enter();
    ++verdicts;
    leave();
  };
  ShardedPipeline pipeline(options, &matcher, [&](ProfileId, ProfileId) {
    enter();
    ++matches;
    leave();
  });
  for (const auto& inc : SplitIntoIncrements(d, 10)) {
    ASSERT_TRUE(pipeline.Ingest(std::vector<EntityProfile>(
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.end))));
  }
  pipeline.NotifyStreamEnd();
  pipeline.Drain();

  EXPECT_EQ(overlaps.load(), 0u);
  EXPECT_GT(verdicts.load(), 0u);
  EXPECT_EQ(verdicts.load(), pipeline.comparisons_processed());
  EXPECT_EQ(matches.load(), pipeline.matches_found());
  // pipeline.comparisons_emitted adds up across the shard engines.
  EXPECT_EQ(pipeline.comparisons_processed() + pipeline.duplicates_suppressed(),
            registry.GetCounter("pipeline.comparisons_emitted")->Value());
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

// `reader`'s snapshot re-sealed (fresh CRCs) with section `name`'s
// payload replaced by `payload`.
std::string ResealWith(const persist::SnapshotReader& reader,
                       const std::string& name, const std::string& payload) {
  persist::SnapshotBuilder builder;
  for (const std::string& section : reader.section_names()) {
    builder.AddSection(section)
        << (section == name ? payload : *reader.Section(section));
  }
  return builder.Bytes();
}

// sharded.meta is checked for meaning before anything is restored: a
// trailing byte, or more matches than comparisons, is rejected with a
// diagnostic and leaves the pipeline usable.
TEST(ShardedPipelineTest, RestoreRejectsMalformedShardedMeta) {
  const JaccardMatcher matcher(0.5);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pier_shard_meta_test")
          .string();
  std::filesystem::remove_all(dir);
  std::string snapshot_path;
  ShardedOptions options;
  options.shard_count = 2;
  {
    ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
    pipeline.EnableCheckpoints(dir, /*every=*/1, /*keep=*/1);
    EXPECT_TRUE(pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}}),
                                 EntityProfile(1, 0, {{"n", "alpha beta"}})}));
    pipeline.Drain();
    auto latest = persist::CheckpointManager::FindLatest(dir);
    ASSERT_TRUE(latest.has_value());
    snapshot_path = *latest;
  }
  persist::SnapshotReader reader;
  {
    std::ifstream in(snapshot_path, std::ios::binary);
    std::string error;
    ASSERT_TRUE(reader.Parse(in, &error)) << error;
  }
  std::filesystem::remove_all(dir);
  const std::string& meta = *reader.Section("sharded.meta");
  // Layout: shard count (u32), then ingests, comparisons, matches and
  // duplicates suppressed (u64 each).
  std::istringstream fields(meta);
  uint32_t shards = 0;
  uint64_t ingests = 0;
  uint64_t comparisons = 0;
  uint64_t matches = 0;
  uint64_t duplicates = 0;
  ASSERT_TRUE(serial::ReadU32(fields, &shards) &&
              serial::ReadU64(fields, &ingests) &&
              serial::ReadU64(fields, &comparisons) &&
              serial::ReadU64(fields, &matches) &&
              serial::ReadU64(fields, &duplicates));
  std::ostringstream inflated;
  serial::WriteU32(inflated, shards);
  serial::WriteU64(inflated, ingests);
  serial::WriteU64(inflated, comparisons);
  serial::WriteU64(inflated, comparisons + 1);
  serial::WriteU64(inflated, duplicates);

  struct Case {
    const char* what;
    std::string payload;
    const char* diagnostic;
  };
  const Case kCases[] = {
      {"trailing byte", meta + '\0', "wrong length"},
      {"matches > comparisons", inflated.str(), "matches but only"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.what);
    ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
    std::istringstream in(ResealWith(reader, "sharded.meta", c.payload));
    std::string error;
    EXPECT_FALSE(pipeline.RestoreFromSnapshot(in, &error));
    EXPECT_NE(error.find("sharded.meta"), std::string::npos) << error;
    EXPECT_NE(error.find(c.diagnostic), std::string::npos) << error;
    EXPECT_EQ(error.find("poisoned"), std::string::npos) << error;
    // Rejected before any mutation: still usable.
    EXPECT_TRUE(pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}})}));
    pipeline.Drain();
  }
  // The unmodified section, re-sealed the same way, restores.
  ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
  std::istringstream in(ResealWith(reader, "sharded.meta", meta));
  std::string error;
  EXPECT_TRUE(pipeline.RestoreFromSnapshot(in, &error)) << error;
  EXPECT_EQ(pipeline.comparisons_processed(), comparisons);
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

TEST_P(ShardedStrategyTest, CheckpointAndResumeMatchesUninterruptedRun) {
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
  RunSharded(d, kIncrements, matcher, GetParam(), kShards, &expected_clusters,
             &unused);

  // One directory per strategy: ctest runs the instances in parallel.
  const std::string dir = (std::filesystem::temp_directory_path() /
                           (std::string("pier_shard_resume_test_") +
                            ToString(GetParam())))
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
    options.pipeline = EquivalenceOptions(d.kind, GetParam());
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

INSTANTIATE_TEST_SUITE_P(AllStrategies, ShardedStrategyTest,
                         ::testing::ValuesIn(AllStrategies()),
                         StrategyTestName);

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
    EXPECT_GT(registry.GetCounter("realtime.batches")->Value(), 0u);
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

// ---------------------------------------------------------------------------
// Shard state digests

// The mutable census stream behind the digests below: 600 records in
// six increments, then corrections that add tokens no record had, then
// deletes (one of a corrected record), then the rest.
void RunShardStateStream(ShardedPipeline& pipeline, const Dataset& d) {
  const auto increments = SplitIntoIncrements(d, 6);
  auto increment_profiles = [&](size_t chunk) {
    return std::vector<EntityProfile>(
        d.profiles.begin() + static_cast<ptrdiff_t>(increments[chunk].begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(increments[chunk].end));
  };
  for (size_t chunk = 0; chunk < 3; ++chunk) {
    ASSERT_TRUE(pipeline.Ingest(increment_profiles(chunk)));
  }
  std::vector<EntityProfile> corrections;
  for (ProfileId id = 10; id < 30; ++id) {
    std::vector<Attribute> attributes;
    d.profiles[id].ForEachAttribute(
        [&](std::string_view name, std::string_view value) {
          attributes.push_back(
              Attribute{std::string(name), std::string(value)});
        });
    attributes.push_back(Attribute{"note", "fresh" + std::to_string(id % 7) +
                                               " unseen" + std::to_string(id)});
    corrections.emplace_back(id, d.profiles[id].source, std::move(attributes));
  }
  ASSERT_TRUE(pipeline.Update(std::move(corrections)));
  std::vector<ProfileId> deletes = {15};
  for (ProfileId id = 40; id < 50; ++id) deletes.push_back(id);
  ASSERT_TRUE(pipeline.Delete(deletes));
  for (size_t chunk = 3; chunk < increments.size(); ++chunk) {
    ASSERT_TRUE(pipeline.Ingest(increment_profiles(chunk)));
  }
  pipeline.Drain();
}

// Shard blocks and token-only profiles depend on ingest alone (not on
// the wall-clock findK), so their section bytes are a deterministic
// function of the stream. The CRC32C values were recorded while every
// shard still re-interned token spellings into a dictionary of its
// own; handing shards shard-local ids from the router's dictionary
// must leave every shard's blocks and profiles byte-identical.
TEST(ShardedPipelineTest, ShardBlocksAndProfilesArePinned) {
  CensusOptions data_options;
  data_options.num_records = 600;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.4);
  struct Expected {
    size_t shards;
    std::vector<std::pair<uint32_t, uint32_t>> blocks_and_profiles;
  };
  const Expected kExpected[] = {
      {1, {{0x81d33b97u, 0xbc2bb09au}}},
      {3,
       {{0xd1ef1318u, 0x06b6fb51u},
        {0x7ab2c3ffu, 0x06a55576u},
        {0xe4eee1b2u, 0xa7963f00u}}},
  };
  for (const Expected& expected : kExpected) {
    SCOPED_TRACE("shards=" + std::to_string(expected.shards));
    const std::string dir = (std::filesystem::temp_directory_path() /
                             ("pier_shard_state_test_" +
                              std::to_string(expected.shards)))
                                .string();
    std::filesystem::remove_all(dir);
    {
      ShardedOptions options;
      options.pipeline.kind = d.kind;
      options.pipeline.strategy = PierStrategy::kIPbs;
      options.pipeline.mutable_stream = true;
      options.shard_count = expected.shards;
      ShardedPipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
      // A checkpoint after every call: the newest one is the quiesced
      // state after the last call.
      pipeline.EnableCheckpoints(dir, /*every=*/1, /*keep=*/1);
      RunShardStateStream(pipeline, d);
    }
    const auto latest = persist::CheckpointManager::FindLatest(dir);
    ASSERT_TRUE(latest.has_value());
    std::ifstream in(*latest, std::ios::binary);
    persist::SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(reader.Parse(in, &error)) << error;
    for (size_t s = 0; s < expected.shards; ++s) {
      const std::string prefix = "shard" + std::to_string(s);
      const std::string* blocks = reader.Section(prefix + ".blocks");
      const std::string* profiles = reader.Section(prefix + ".profiles");
      ASSERT_NE(blocks, nullptr);
      ASSERT_NE(profiles, nullptr);
      EXPECT_EQ(persist::Crc32c(*blocks),
                expected.blocks_and_profiles[s].first)
          << prefix;
      EXPECT_EQ(persist::Crc32c(*profiles),
                expected.blocks_and_profiles[s].second)
          << prefix;
      // The router's dictionary is the only one: a shard's is empty
      // (a zero spelling count).
      const std::string* dictionary = reader.Section(prefix + ".dictionary");
      ASSERT_NE(dictionary, nullptr);
      EXPECT_EQ(*dictionary, std::string(sizeof(uint64_t), '\0')) << prefix;
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace pier
