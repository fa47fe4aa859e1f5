// Tests for src/persist: CRC32C vectors, the framed snapshot container
// (round trip + exhaustive fault injection), per-component
// Snapshot/Restore round trips with byte-identical re-serialization,
// the atomic CheckpointManager, and the ApproxMemoryBytes gauges.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/block_collection.h"
#include "core/find_k.h"
#include "core/pier_pipeline.h"
#include "model/comparison.h"
#include "model/profile_store.h"
#include "model/token_dictionary.h"
#include "obs/metrics.h"
#include "persist/checkpoint_manager.h"
#include "persist/crc32c.h"
#include "persist/snapshot.h"
#include "text/tokenizer.h"
#include "util/bloom_filter.h"
#include "util/bounded_priority_queue.h"
#include "util/moving_average.h"
#include "util/scalable_bloom_filter.h"
#include "util/serial.h"

namespace pier {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVector) {
  // The canonical CRC32C check value (RFC 3720 appendix B.4).
  const std::string data = "123456789";
  EXPECT_EQ(persist::Crc32c(data.data(), data.size()), 0xE3069283u);
}

TEST(Crc32cTest, EmptyIsZero) {
  EXPECT_EQ(persist::Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, ChainingMatchesOneShot) {
  const std::string data = "progressive entity resolution";
  const uint32_t whole = persist::Crc32c(data.data(), data.size());
  uint32_t chained = 0;
  for (size_t split = 0; split <= data.size(); ++split) {
    chained = persist::Crc32c(data.data(), split, 0);
    chained = persist::Crc32c(data.data() + split, data.size() - split,
                              chained);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data = "some payload bytes";
  const uint32_t clean = persist::Crc32c(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(persist::Crc32c(data.data(), data.size()), clean);
      data[i] ^= static_cast<char>(1 << bit);
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

std::string BuildSampleSnapshot() {
  persist::SnapshotBuilder builder;
  std::ostream& a = builder.AddSection("alpha");
  serial::WriteU64(a, 42);
  serial::WriteString(a, "hello");
  std::ostream& b = builder.AddSection("beta");
  serial::WriteF64(b, 2.5);
  return builder.Bytes();
}

TEST(SnapshotTest, RoundTrip) {
  const std::string bytes = BuildSampleSnapshot();
  std::istringstream in(bytes);
  persist::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(in, &error)) << error;
  EXPECT_EQ(reader.section_names(),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_TRUE(reader.Has("alpha"));
  EXPECT_FALSE(reader.Has("gamma"));

  std::istringstream alpha;
  ASSERT_TRUE(reader.Open("alpha", &alpha, &error)) << error;
  uint64_t v = 0;
  std::string s;
  ASSERT_TRUE(serial::ReadU64(alpha, &v));
  ASSERT_TRUE(serial::ReadString(alpha, &s));
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(s, "hello");

  std::istringstream missing;
  EXPECT_FALSE(reader.Open("gamma", &missing, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SnapshotTest, EmptySnapshotRoundTrips) {
  persist::SnapshotBuilder builder;
  std::istringstream in(builder.Bytes());
  persist::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(in, &error)) << error;
  EXPECT_TRUE(reader.section_names().empty());
}

TEST(SnapshotTest, EveryByteCorruptionRejected) {
  const std::string clean = BuildSampleSnapshot();
  for (size_t i = 0; i < clean.size(); ++i) {
    std::string corrupt = clean;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    std::istringstream in(corrupt);
    persist::SnapshotReader reader;
    std::string error;
    EXPECT_FALSE(reader.Parse(in, &error)) << "flip at byte " << i;
    EXPECT_FALSE(error.empty()) << "flip at byte " << i;
  }
}

TEST(SnapshotTest, EveryTruncationRejected) {
  const std::string clean = BuildSampleSnapshot();
  for (size_t len = 0; len < clean.size(); ++len) {
    std::istringstream in(clean.substr(0, len));
    persist::SnapshotReader reader;
    std::string error;
    EXPECT_FALSE(reader.Parse(in, &error)) << "truncated to " << len;
    EXPECT_FALSE(error.empty()) << "truncated to " << len;
  }
}

TEST(SnapshotTest, TrailingGarbageRejected) {
  std::string bytes = BuildSampleSnapshot();
  bytes.push_back('\0');
  std::istringstream in(bytes);
  persist::SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(reader.Parse(in, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(SnapshotTest, WrongMagicRejected) {
  std::string bytes = BuildSampleSnapshot();
  bytes[0] = 'X';
  std::istringstream in(bytes);
  persist::SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(reader.Parse(in, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

// Hand-frames a snapshot with an arbitrary format version, following
// the documented layout (SnapshotBuilder always stamps the current
// version, so back/forward-compat tests need to build the file raw).
std::string FrameWithVersion(
    uint32_t version,
    const std::vector<std::pair<std::string, std::string>>& sections) {
  std::ostringstream header;
  serial::WriteU32(header, version);
  serial::WriteU32(header, static_cast<uint32_t>(sections.size()));
  for (const auto& [name, payload] : sections) {
    serial::WriteU16(header, static_cast<uint16_t>(name.size()));
    header.write(name.data(), static_cast<std::streamsize>(name.size()));
    serial::WriteU64(header, payload.size());
    serial::WriteU32(header, persist::Crc32c(payload));
  }
  const std::string header_bytes = std::move(header).str();
  std::ostringstream out;
  out.write(persist::kMagic, sizeof(persist::kMagic));
  out.write(header_bytes.data(),
            static_cast<std::streamsize>(header_bytes.size()));
  serial::WriteU32(out, persist::Crc32c(header_bytes));
  for (const auto& [name, payload] : sections) {
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  return std::move(out).str();
}

// The current version is the only format: a file framed at an older
// version is refused with a version diagnostic before any section is
// exposed.
void ExpectOlderVersionRejected(uint32_t version) {
  std::istringstream current(BuildSampleSnapshot());
  persist::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(current, &error)) << error;
  std::vector<std::pair<std::string, std::string>> sections;
  for (const std::string& name : reader.section_names()) {
    sections.emplace_back(name, *reader.Section(name));
  }
  std::istringstream old_in(FrameWithVersion(version, sections));
  persist::SnapshotReader old_reader;
  EXPECT_FALSE(old_reader.Parse(old_in, &error));
  const std::string expected = "version " + std::to_string(version);
  EXPECT_NE(error.find(expected), std::string::npos) << error;
  EXPECT_TRUE(old_reader.section_names().empty());
}

TEST(SnapshotTest, V3FileRejected) { ExpectOlderVersionRejected(3); }

// v4 wrote a retractable pair filter as a counting Bloom filter plus
// its pair registry; v5 writes the registry alone.
TEST(SnapshotTest, V4FileRejected) { ExpectOlderVersionRejected(4); }

// v5 wrote an append-only pair filter as a scalable Bloom filter; v6
// writes the pair registry on every stream.
TEST(SnapshotTest, V5FileRejected) { ExpectOlderVersionRejected(5); }

// v6 fingerprinted findK()'s window, utilization and gain and SPER-SK's
// sample budget and probe count in `pier.meta`, and the simulator's
// curve granularity, stall limit and frontier seed in `sim.meta`; v7
// has them as constants.
TEST(SnapshotTest, V6FileRejected) { ExpectOlderVersionRejected(6); }

// v7 wrote I-PES's EntityQueue as interval-heap storage; v8 writes it
// in pop order.
TEST(SnapshotTest, V7FileRejected) { ExpectOlderVersionRejected(7); }

TEST(SnapshotTest, OutOfRangeVersionsRejected) {
  for (const uint32_t version : {uint32_t{0}, persist::kFormatVersion - 1,
                                 persist::kFormatVersion + 1}) {
    const std::string bytes = FrameWithVersion(version, {});
    std::istringstream in(bytes);
    persist::SnapshotReader reader;
    std::string error;
    EXPECT_FALSE(reader.Parse(in, &error)) << "version " << version;
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
}

// ---------------------------------------------------------------------------
// Component round trips
// ---------------------------------------------------------------------------

EntityProfile MakeProfile(ProfileId id, SourceId source, std::string title) {
  return EntityProfile(id, source, {{"title", std::move(title)}});
}

// Serializes, restores into `fresh`, and checks the restored object
// re-serializes to the same bytes (canonical encoding).
template <typename T>
void ExpectCanonicalRoundTrip(const T& original, T& fresh) {
  std::ostringstream out;
  original.Snapshot(out);
  std::istringstream in(out.str());
  ASSERT_TRUE(fresh.Restore(in));
  std::ostringstream again;
  fresh.Snapshot(again);
  EXPECT_EQ(out.str(), again.str());
}

TEST(ComponentPersistTest, ProfileStoreRoundTrip) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  ProfileStore store;
  for (ProfileId i = 0; i < 50; ++i) {
    EntityProfile p = MakeProfile(i, i % 2, "alpha beta " +
                                                std::to_string(i));
    tokenizer.TokenizeProfile(p, dict);
    store.Add(std::move(p));
  }

  std::ostringstream out;
  store.Snapshot(out);
  ProfileStore restored;
  std::istringstream in(out.str());
  ASSERT_TRUE(restored.Restore(in));
  ASSERT_EQ(restored.size(), store.size());
  for (ProfileId i = 0; i < 50; ++i) {
    const EntityProfile& a = store.Get(i);
    const EntityProfile& b = restored.Get(i);
    EXPECT_EQ(a.source, b.source);
    const std::span<const TokenId> ta = a.tokens();
    const std::span<const TokenId> tb = b.tokens();
    ASSERT_EQ(ta.size(), tb.size());
    EXPECT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin()));
    EXPECT_EQ(a.flat_text(), b.flat_text());
    ASSERT_EQ(a.num_attributes(), b.num_attributes());
  }
  std::ostringstream again;
  restored.Snapshot(again);
  EXPECT_EQ(out.str(), again.str());

  // A non-empty store refuses to restore.
  std::istringstream in2(out.str());
  EXPECT_FALSE(restored.Restore(in2));
}

TEST(ComponentPersistTest, ProfileStoreMutatedRoundTripByteIdentical) {
  // Tombstones and in-place corrections leave abandoned spans behind
  // in the arenas; the snapshot must serialize the *surviving* state
  // so that a restore into fresh (compact) arenas re-snapshots the
  // exact same bytes.
  Tokenizer tokenizer;
  TokenDictionary dict;
  ProfileStore store;
  for (ProfileId i = 0; i < 60; ++i) {
    EntityProfile p = MakeProfile(i, i % 2, "alpha beta " +
                                                std::to_string(i));
    tokenizer.TokenizeProfile(p, dict);
    store.Add(std::move(p));
  }
  for (ProfileId i = 10; i < 25; ++i) store.Remove(i);
  for (ProfileId i = 20; i < 35; ++i) {  // ids 20..24 revive tombstones
    EntityProfile p = MakeProfile(i, i % 2, "corrected text " +
                                                std::to_string(i * 7));
    tokenizer.TokenizeProfile(p, dict);
    store.Replace(std::move(p));
  }
  ASSERT_GT(store.token_arena().abandoned_items(), 0u);
  ASSERT_EQ(store.num_live(), 50u);

  std::ostringstream out;
  store.Snapshot(out);
  ProfileStore restored;
  std::istringstream in(out.str());
  ASSERT_TRUE(restored.Restore(in));
  ASSERT_EQ(restored.size(), store.size());
  EXPECT_EQ(restored.num_live(), store.num_live());
  for (ProfileId i = 0; i < 60; ++i) {
    EXPECT_EQ(restored.IsLive(i), store.IsLive(i)) << "id " << i;
    EXPECT_EQ(restored.Get(i).flat_text(), store.Get(i).flat_text());
  }
  // Replacements survived, tombstones stayed cleared.
  EXPECT_TRUE(restored.Get(22).flat_text().find("corrected") !=
              std::string_view::npos);
  EXPECT_TRUE(restored.Get(12).flat_text().empty());

  // The restored arenas hold no abandoned spans (restore is compact),
  // yet the bytes written back must match exactly.
  EXPECT_EQ(restored.token_arena().abandoned_items(), 0u);
  std::ostringstream again;
  restored.Snapshot(again);
  EXPECT_EQ(out.str(), again.str());
}

TEST(ComponentPersistTest, TokenDictionaryRoundTrip) {
  TokenDictionary dict;
  for (const char* word : {"alpha", "beta", "gamma", "alpha", "beta"}) {
    dict.Intern(word);
  }
  TokenDictionary restored;
  ExpectCanonicalRoundTrip(dict, restored);
  EXPECT_EQ(restored.size(), dict.size());
  EXPECT_EQ(restored.Lookup("gamma"), dict.Lookup("gamma"));
}

TEST(ComponentPersistTest, BlockCollectionRoundTrip) {
  BlockingOptions options;
  BlockCollection blocks(DatasetKind::kDirty, options);
  Tokenizer tokenizer;
  TokenDictionary dict;
  ProfileStore store;
  for (ProfileId i = 0; i < 30; ++i) {
    EntityProfile p = MakeProfile(i, 0, "shared tok" + std::to_string(i % 7));
    tokenizer.TokenizeProfile(p, dict);
    blocks.AddProfile(p);
    store.Add(std::move(p));
  }

  std::ostringstream out;
  blocks.Snapshot(out);
  BlockCollection restored(DatasetKind::kDirty, options);
  std::istringstream in(out.str());
  ASSERT_TRUE(restored.Restore(in));
  EXPECT_EQ(restored.NumSlots(), blocks.NumSlots());
  EXPECT_EQ(restored.ApproxMemoryBytes(), blocks.ApproxMemoryBytes());
  std::ostringstream again;
  restored.Snapshot(again);
  EXPECT_EQ(out.str(), again.str());

  // Kind mismatch is rejected.
  BlockCollection wrong_kind(DatasetKind::kCleanClean, options);
  std::istringstream in2(out.str());
  EXPECT_FALSE(wrong_kind.Restore(in2));
}

TEST(ComponentPersistTest, ScalableBloomFilterRoundTrip) {
  ScalableBloomFilter filter;
  for (uint64_t k = 0; k < 5000; ++k) filter.TestAndAdd(k * 977);

  ScalableBloomFilter restored;
  ExpectCanonicalRoundTrip(filter, restored);
  // The restored filter answers identically.
  for (uint64_t k = 0; k < 5000; ++k) {
    EXPECT_TRUE(restored.MayContain(k * 977));
  }
  EXPECT_EQ(restored.num_insertions(), filter.num_insertions());
}

TEST(ComponentPersistTest, BloomFilterCorruptHeaderRejected) {
  BloomFilter filter(128, 0.01);
  filter.Add(7);
  std::ostringstream out;
  filter.Snapshot(out);
  std::string bytes = out.str();
  // num_hashes lives after the sentinel (u64) + layout (u8) +
  // expected_items (u64) + num_bits (u64) prefix.
  bytes[25] = static_cast<char>(0xFF);
  bytes[26] = static_cast<char>(0xFF);
  std::istringstream in(bytes);
  EXPECT_EQ(BloomFilter::FromSnapshot(in), nullptr);
}

TEST(ComponentPersistTest, WindowAverageRoundTrip) {
  WindowAverage avg(8);
  for (int i = 1; i <= 5; ++i) avg.Add(0.1 * i);
  WindowAverage restored(8);
  ExpectCanonicalRoundTrip(avg, restored);
  EXPECT_EQ(restored.Mean(), avg.Mean());

  WindowAverage wrong_window(4);
  std::ostringstream out;
  avg.Snapshot(out);
  std::istringstream in(out.str());
  EXPECT_FALSE(wrong_window.Restore(in));
}

TEST(ComponentPersistTest, AdaptiveKRoundTrip) {
  AdaptiveK controller;
  for (int i = 0; i < 20; ++i) {
    controller.OnArrival(0.25 * i);
    controller.OnBatchProcessed(64, 0.01);
    (void)controller.FindK();
  }
  AdaptiveK restored;
  ExpectCanonicalRoundTrip(controller, restored);
  EXPECT_EQ(restored.FindK(), controller.FindK());
  EXPECT_EQ(restored.MeanInterarrival(), controller.MeanInterarrival());
  EXPECT_EQ(restored.MeanCostPerComparison(),
            controller.MeanCostPerComparison());
}

TEST(ComponentPersistTest, BoundedPriorityQueueRestoreData) {
  BoundedPriorityQueue<int, std::less<int>> queue(4, std::less<int>());
  BoundedPriorityQueue<int, std::less<int>> restored(4, std::less<int>());
  queue.Push(3);
  queue.Push(1);
  queue.Push(2);
  ASSERT_TRUE(restored.RestoreData(
      std::vector<int>(queue.data().begin(), queue.data().end())));
  EXPECT_EQ(restored.size(), 3u);
  // Over-capacity payloads are rejected.
  EXPECT_FALSE(restored.RestoreData(std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(ComponentPersistTest, BoundedPriorityQueueRestoreRejectsSwappedSlots) {
  BoundedPriorityQueue<int, std::less<int>> queue(64, std::less<int>());
  for (int i = 0; i < 41; ++i) queue.Push((i * 17) % 41);
  const std::vector<int> valid = queue.data();
  // The root's min and max slots swapped: the payload's CRC would still
  // hold, but it is no interval heap.
  {
    std::vector<int> broken = valid;
    std::swap(broken[0], broken[1]);
    BoundedPriorityQueue<int, std::less<int>> restored(64, std::less<int>());
    EXPECT_FALSE(restored.RestoreData(std::move(broken)));
    EXPECT_TRUE(restored.empty());
  }
  // Every other swap of two slots: a payload that restores must still
  // dequeue in order, and most swaps are rejected.
  size_t rejected = 0;
  for (size_t i = 0; i < valid.size(); ++i) {
    for (size_t j = i + 1; j < valid.size(); ++j) {
      std::vector<int> swapped = valid;
      std::swap(swapped[i], swapped[j]);
      BoundedPriorityQueue<int, std::less<int>> restored(64, std::less<int>());
      if (!restored.RestoreData(std::move(swapped))) {
        ++rejected;
        continue;
      }
      for (int expected = 40; expected >= 0; --expected) {
        ASSERT_EQ(restored.PopMax(), expected) << "swap " << i << "," << j;
      }
    }
  }
  EXPECT_GT(rejected, valid.size() * (valid.size() - 1) / 4);
}

TEST(ComponentPersistTest, ComparisonRoundTrip) {
  const Comparison c(3, 9, 0.625, 17);
  std::ostringstream out;
  SnapshotComparison(out, c);
  std::istringstream in(out.str());
  Comparison restored(0, 0, 0.0, 0);
  ASSERT_TRUE(RestoreComparison(in, &restored));
  EXPECT_EQ(restored.x, c.x);
  EXPECT_EQ(restored.y, c.y);
  EXPECT_EQ(restored.weight, c.weight);
  EXPECT_EQ(restored.block_size, c.block_size);
}

// ---------------------------------------------------------------------------
// PierPipeline snapshot
// ---------------------------------------------------------------------------

std::vector<EntityProfile> SampleIncrement(ProfileId base, size_t n) {
  std::vector<EntityProfile> profiles;
  for (size_t i = 0; i < n; ++i) {
    profiles.push_back(MakeProfile(
        base + static_cast<ProfileId>(i), 0,
        "record alpha" + std::to_string((base + i) % 5) + " beta" +
            std::to_string((base + i) % 3)));
  }
  return profiles;
}

class PipelinePersistTest : public ::testing::TestWithParam<PierStrategy> {};

TEST_P(PipelinePersistTest, SnapshotRestoreSnapshotByteIdentical) {
  PierOptions options;
  options.kind = DatasetKind::kDirty;
  options.strategy = GetParam();
  PierPipeline pipeline(options);
  pipeline.ReportArrival(0.0);
  pipeline.Ingest(SampleIncrement(0, 20));
  (void)pipeline.EmitBatch(8);
  pipeline.ReportArrival(0.5);
  pipeline.Ingest(SampleIncrement(20, 20));
  (void)pipeline.EmitBatch(8);

  persist::SnapshotBuilder builder;
  pipeline.Snapshot(builder);
  std::istringstream in(builder.Bytes());
  persist::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(in, &error)) << error;

  PierPipeline restored(options);
  ASSERT_TRUE(restored.Restore(reader, &error)) << error;
  persist::SnapshotBuilder again;
  restored.Snapshot(again);
  EXPECT_EQ(builder.Bytes(), again.Bytes());

  // The restored pipeline continues with the identical verdict stream.
  for (int round = 0; round < 50; ++round) {
    const auto a = pipeline.EmitBatch(16);
    const auto b = restored.EmitBatch(16);
    ASSERT_EQ(a.size(), b.size()) << "round " << round;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].Key(), b[i].Key());
      EXPECT_EQ(a[i].weight, b[i].weight);
    }
    if (a.empty()) break;
  }
}

TEST_P(PipelinePersistTest, RestoreRejectsMissingClusterSection) {
  // Every section a pipeline writes is required: a file without
  // 'pier.clusters' is refused with a missing-section diagnostic.
  PierOptions options;
  options.kind = DatasetKind::kDirty;
  options.strategy = GetParam();
  PierPipeline pipeline(options);
  pipeline.ReportArrival(0.0);
  pipeline.Ingest(SampleIncrement(0, 20));
  (void)pipeline.EmitBatch(8);
  pipeline.RecordMatch(0, 1);

  persist::SnapshotBuilder builder;
  pipeline.Snapshot(builder);
  std::istringstream in(builder.Bytes());
  persist::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(in, &error)) << error;

  std::vector<std::pair<std::string, std::string>> sections;
  for (const std::string& name : reader.section_names()) {
    if (name == "pier.clusters") continue;
    sections.emplace_back(name, *reader.Section(name));
  }
  std::istringstream without_in(
      FrameWithVersion(persist::kFormatVersion, sections));
  persist::SnapshotReader without;
  ASSERT_TRUE(without.Parse(without_in, &error)) << error;

  PierPipeline restored(options);
  EXPECT_FALSE(restored.Restore(without, &error));
  EXPECT_NE(error.find("pier.clusters"), std::string::npos) << error;
}

TEST_P(PipelinePersistTest, MutabilityMismatchRejectedBothWays) {
  // The fingerprint writes every field for every configuration, so a
  // mutable snapshot never passes the meta check of an append-only
  // pipeline (or the reverse) to fail later in a section decode.
  for (const bool writer_mutable : {true, false}) {
    SCOPED_TRACE(writer_mutable ? "mutable -> append-only"
                                : "append-only -> mutable");
    PierOptions options;
    options.kind = DatasetKind::kDirty;
    options.strategy = GetParam();
    options.mutable_stream = writer_mutable;
    PierPipeline pipeline(options);
    pipeline.Ingest(SampleIncrement(0, 20));
    (void)pipeline.EmitBatch(8);
    persist::SnapshotBuilder builder;
    pipeline.Snapshot(builder);
    std::istringstream in(builder.Bytes());
    persist::SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(reader.Parse(in, &error)) << error;

    options.mutable_stream = !writer_mutable;
    PierPipeline other(options);
    EXPECT_FALSE(other.Restore(reader, &error));
    EXPECT_NE(error.find("configuration"), std::string::npos) << error;
  }
}

TEST_P(PipelinePersistTest, FingerprintMismatchRejected) {
  PierOptions options;
  options.kind = DatasetKind::kDirty;
  options.strategy = GetParam();
  PierPipeline pipeline(options);
  pipeline.Ingest(SampleIncrement(0, 10));
  persist::SnapshotBuilder builder;
  pipeline.Snapshot(builder);
  std::istringstream in(builder.Bytes());
  persist::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(in, &error)) << error;

  PierOptions other = options;
  other.blocking.max_block_size += 1;
  PierPipeline mismatched(other);
  EXPECT_FALSE(mismatched.Restore(reader, &error));
  EXPECT_NE(error.find("configuration"), std::string::npos) << error;

  // A pipeline that already ingested refuses to restore.
  PierPipeline dirty(options);
  dirty.Ingest(SampleIncrement(0, 2));
  EXPECT_FALSE(dirty.Restore(reader, &error));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PipelinePersistTest,
                         ::testing::ValuesIn(AllStrategies()));

// ---------------------------------------------------------------------------
// CheckpointManager
// ---------------------------------------------------------------------------

class CheckpointManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pier_ckpt_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(CheckpointManagerTest, WriteFindLatestAndRotate) {
  persist::CheckpointOptions options;
  options.dir = dir_.string();
  options.every = 5;
  options.keep = 2;
  persist::CheckpointManager manager(options);
  ASSERT_TRUE(manager.enabled());
  EXPECT_TRUE(manager.Due(0));
  EXPECT_FALSE(manager.Due(3));
  EXPECT_TRUE(manager.Due(5));

  std::string error;
  for (uint64_t seq : {0, 5, 10, 15}) {
    persist::SnapshotBuilder builder;
    serial::WriteU64(builder.AddSection("seq"), seq);
    ASSERT_FALSE(manager.Write(seq, builder, &error).empty()) << error;
  }
  // Rotation keeps only the newest 2.
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);
  const auto latest = persist::CheckpointManager::FindLatest(dir_.string());
  ASSERT_TRUE(latest.has_value());
  EXPECT_NE(latest->find("ckpt-00000015.piersnap"), std::string::npos);

  // The written file parses and holds the section.
  std::ifstream in(*latest, std::ios::binary);
  persist::SnapshotReader reader;
  ASSERT_TRUE(reader.Parse(in, &error)) << error;
  EXPECT_TRUE(reader.Has("seq"));
}

TEST_F(CheckpointManagerTest, DisabledWithoutDir) {
  persist::CheckpointManager manager(persist::CheckpointOptions{});
  EXPECT_FALSE(manager.enabled());
  EXPECT_FALSE(manager.Due(0));
}

TEST_F(CheckpointManagerTest, FindLatestEmptyDir) {
  EXPECT_FALSE(persist::CheckpointManager::FindLatest(dir_.string())
                   .has_value());
  fs::create_directories(dir_);
  EXPECT_FALSE(persist::CheckpointManager::FindLatest(dir_.string())
                   .has_value());
}

// ---------------------------------------------------------------------------
// ApproxMemoryBytes
// ---------------------------------------------------------------------------

TEST(ApproxMemoryBytesTest, GrowsWithState) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  ProfileStore store;
  BlockingOptions blocking;
  BlockCollection blocks(DatasetKind::kDirty, blocking);
  // An empty store still reports its fixed chunk-directory overhead.
  const size_t store_empty = store.ApproxMemoryBytes();
  const size_t dict_empty = dict.ApproxMemoryBytes();
  const size_t blocks_empty = blocks.ApproxMemoryBytes();
  for (ProfileId i = 0; i < 100; ++i) {
    EntityProfile p = MakeProfile(i, 0, "tok" + std::to_string(i));
    tokenizer.TokenizeProfile(p, dict);
    blocks.AddProfile(p);
    store.Add(std::move(p));
  }
  EXPECT_GT(store.ApproxMemoryBytes(),
            store_empty + 100u * sizeof(EntityProfile));
  EXPECT_GT(dict.ApproxMemoryBytes(), dict_empty);
  EXPECT_GT(blocks.ApproxMemoryBytes(), blocks_empty);

  ScalableBloomFilter filter;
  const size_t filter_empty = filter.ApproxMemoryBytes();
  for (uint64_t k = 0; k < 100000; ++k) filter.TestAndAdd(k);
  EXPECT_GT(filter.ApproxMemoryBytes(), filter_empty);
}

// Regression: the filter gauge must report the pair registry that is
// actually in use (partner-list entries per executed pair), not a
// fixed size.
TEST(ApproxMemoryBytesTest, ExactFilterGaugeGrowsWithExecutedPairs) {
#ifdef PIER_OBS_DISABLED
  GTEST_SKIP() << "metrics are compiled out";
#endif
  obs::MetricsRegistry registry;
  PierOptions options;
  options.kind = DatasetKind::kDirty;
  options.metrics = &registry;
  PierPipeline pipeline(options);
  const auto filter_gauge = [&] {
    persist::SnapshotBuilder builder;
    pipeline.Snapshot(builder);
    return registry.GetGauge("persist.state_bytes.filter")->Value();
  };
  pipeline.ReportArrival(0.0);
  pipeline.Ingest(SampleIncrement(0, 60));
  const double before = filter_gauge();
  size_t executed = 0;
  for (int round = 0; round < 20; ++round) {
    executed += pipeline.EmitBatch(64).size();
  }
  ASSERT_GT(executed, 100u);
  EXPECT_GE(filter_gauge() - before, 8.0 * static_cast<double>(executed));
}

// I-PBS runs no executed filter: its CF (inside the prioritizer
// section) is the one filter on its pair path. The filter gauge must
// report CF, not 0, and grow with CF's pair registry.
TEST(ApproxMemoryBytesTest, IPbsFilterGaugeReportsComparisonFilter) {
#ifdef PIER_OBS_DISABLED
  GTEST_SKIP() << "metrics are compiled out";
#endif
  obs::MetricsRegistry registry;
  PierOptions options;
  options.kind = DatasetKind::kDirty;
  options.strategy = PierStrategy::kIPbs;
  options.mutable_stream = true;
  options.metrics = &registry;
  PierPipeline pipeline(options);
  const PairFilter* cf = pipeline.prioritizer().UniquePairFilter();
  ASSERT_NE(cf, nullptr);
  EXPECT_EQ(&pipeline.pair_filter(), cf);
  const auto filter_gauge = [&] {
    persist::SnapshotBuilder builder;
    pipeline.Snapshot(builder);
    return registry.GetGauge("persist.state_bytes.filter")->Value();
  };
  pipeline.Ingest(SampleIncrement(0, 60));
  const double before = filter_gauge();
  EXPECT_EQ(before, static_cast<double>(cf->ApproxMemoryBytes()));
  size_t emitted = 0;
  for (int round = 0; round < 20; ++round) {
    emitted += pipeline.EmitBatch(64).size();
  }
  ASSERT_GT(emitted, 100u);
  // Each scheduled pair adds two registry entries of one id each.
  EXPECT_GE(filter_gauge() - before, 8.0 * static_cast<double>(emitted));
  EXPECT_EQ(filter_gauge(), static_cast<double>(cf->ApproxMemoryBytes()));
}

// Only strategies without a unique-pair filter of their own write a
// `.filter` section; an I-PBS restore ignores one (as written before
// I-PBS dropped its executed filter) and continues identically.
TEST(PipelinePersistFilterSectionTest, IPbsWritesNoneAndIgnoresOne) {
  for (const PierStrategy strategy : AllStrategies()) {
    PierOptions options;
    options.strategy = strategy;
    options.mutable_stream = true;
    PierPipeline pipeline(options);
    pipeline.Ingest(SampleIncrement(0, 30));
    (void)pipeline.EmitBatch(16);
    persist::SnapshotBuilder builder;
    pipeline.Snapshot(builder);
    std::istringstream in(builder.Bytes());
    persist::SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(reader.Parse(in, &error)) << error;
    const bool own_filter =
        pipeline.prioritizer().UniquePairFilter() != nullptr;
    EXPECT_EQ(own_filter, strategy == PierStrategy::kIPbs)
        << ToString(strategy);
    EXPECT_EQ(reader.Has("pier.filter"), !own_filter) << ToString(strategy);
    if (!own_filter) continue;

    std::vector<std::pair<std::string, std::string>> sections;
    for (const std::string& name : reader.section_names()) {
      sections.emplace_back(name, *reader.Section(name));
    }
    PairFilter stale;
    (void)stale.TestAndAdd(0, 1);
    std::ostringstream stale_bytes;
    stale.Snapshot(stale_bytes);
    sections.emplace_back("pier.filter", stale_bytes.str());
    std::istringstream framed(
        FrameWithVersion(persist::kFormatVersion, sections));
    persist::SnapshotReader with_filter;
    ASSERT_TRUE(with_filter.Parse(framed, &error)) << error;
    ASSERT_TRUE(with_filter.Has("pier.filter"));

    PierPipeline restored(options);
    ASSERT_TRUE(restored.Restore(with_filter, &error)) << error;
    persist::SnapshotBuilder again;
    restored.Snapshot(again);
    EXPECT_EQ(again.Bytes(), builder.Bytes());
    for (int round = 0; round < 20; ++round) {
      const auto a = pipeline.EmitBatch(16);
      const auto b = restored.EmitBatch(16);
      ASSERT_EQ(a.size(), b.size()) << "round " << round;
      for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].Key(), b[i].Key());
      if (a.empty()) break;
    }
  }
}

// ---------------------------------------------------------------------------
// I-PES prioritizer payloads: meaning, not just the checksum
// ---------------------------------------------------------------------------

std::string PrioritizerPayload(const PierPipeline& pipeline) {
  persist::SnapshotBuilder builder;
  pipeline.Snapshot(builder);
  std::istringstream in(builder.Bytes());
  persist::SnapshotReader reader;
  std::string error;
  EXPECT_TRUE(reader.Parse(in, &error)) << error;
  return *reader.Section("pier.prioritizer");
}

// Restores `pipeline`'s snapshot, its `pier.prioritizer` payload
// replaced by `payload` and every section re-sealed, into a fresh
// pipeline with `options`. On success, returns that pipeline's next
// batch of up to 8 pairs in *batch.
bool RestoreWithPrioritizer(const PierPipeline& pipeline,
                            const PierOptions& options,
                            const std::string& payload, std::string* error,
                            std::vector<Comparison>* batch = nullptr) {
  persist::SnapshotBuilder builder;
  pipeline.Snapshot(builder);
  std::istringstream in(builder.Bytes());
  persist::SnapshotReader reader;
  if (!reader.Parse(in, error)) return false;
  persist::SnapshotBuilder resealed;
  for (const std::string& name : reader.section_names()) {
    resealed.AddSection(name)
        << (name == "pier.prioritizer" ? payload : *reader.Section(name));
  }
  std::istringstream resealed_in(resealed.Bytes());
  persist::SnapshotReader resealed_reader;
  if (!resealed_reader.Parse(resealed_in, error)) return false;
  PierPipeline restored(options);
  if (!restored.Restore(resealed_reader, error)) return false;
  if (batch != nullptr) *batch = restored.EmitBatch(8);
  return true;
}

PierOptions IPesOptions() {
  PierOptions options;
  options.kind = DatasetKind::kDirty;
  options.strategy = PierStrategy::kIPes;
  return options;
}

// A drained I-PES tracks no entity. A payload whose nonempty-entity
// count says otherwise made Empty() false while Dequeue found nothing,
// so the next EmitBatch never returned; an entry with an empty queue
// is rejected as well.
TEST(IPesRestoreTest, RejectsEntityCountsTheEntriesDoNotBackUp) {
  const PierOptions options = IPesOptions();
  PierPipeline pipeline(options);
  pipeline.Ingest(SampleIncrement(0, 20));
  while (!pipeline.EmitBatch(64).empty()) {
  }
  const std::string payload = PrioritizerPayload(pipeline);
  // Layout: entity count, EntityQueue length, low queue length (u64
  // each), Total (f64), Count, nonempty-entity count (u64 each), then
  // the refill count and the scanner.
  std::istringstream fields(payload);
  uint64_t entities = 1;
  uint64_t entity_queue = 1;
  uint64_t low_queue = 1;
  double total = 0.0;
  uint64_t count = 0;
  uint64_t nonempty = 1;
  ASSERT_TRUE(serial::ReadU64(fields, &entities) &&
              serial::ReadU64(fields, &entity_queue) &&
              serial::ReadU64(fields, &low_queue) &&
              serial::ReadF64(fields, &total) &&
              serial::ReadU64(fields, &count) &&
              serial::ReadU64(fields, &nonempty));
  ASSERT_EQ(entities + entity_queue + low_queue + nonempty, 0u);
  const std::string rest = payload.substr(48);
  const auto forge = [&](bool empty_entry, uint64_t nonempty_count) {
    std::ostringstream out;
    serial::WriteU64(out, empty_entry ? 1 : 0);
    if (empty_entry) {
      serial::WriteU32(out, 3);     // entity id
      serial::WriteF64(out, 1.0);   // inserted_total
      serial::WriteU64(out, 1);     // inserted_count
      serial::WriteU64(out, 0);     // an empty E_PQ
    }
    serial::WriteU64(out, 0);
    serial::WriteU64(out, 0);
    serial::WriteF64(out, total);
    serial::WriteU64(out, count);
    serial::WriteU64(out, nonempty_count);
    return out.str() + rest;
  };
  ASSERT_EQ(forge(false, 0), payload);

  std::string error;
  std::vector<Comparison> batch;
  EXPECT_TRUE(RestoreWithPrioritizer(pipeline, options, payload, &error,
                                     &batch))
      << error;
  EXPECT_TRUE(batch.empty());
  for (const auto& [empty_entry, nonempty_count] :
       {std::pair{false, 1}, std::pair{true, 1}, std::pair{true, 0}}) {
    SCOPED_TRACE(std::to_string(empty_entry) + "/" +
                 std::to_string(nonempty_count));
    error.clear();
    EXPECT_FALSE(RestoreWithPrioritizer(
        pipeline, options, forge(empty_entry, nonempty_count), &error));
    EXPECT_NE(error.find("pier.prioritizer"), std::string::npos) << error;
  }
}

// The EntityQueue is stored in pop order within its capacity; a
// payload out of order or over capacity is rejected.
TEST(IPesRestoreTest, RejectsUnsortedOrOverCapacityEntityQueue) {
  constexpr size_t kCapacity = 8;
  PierOptions options = IPesOptions();
  options.prioritizer.entity_queue_capacity = kCapacity;
  PierPipeline pipeline(options);
  pipeline.Ingest(SampleIncrement(0, 40));
  const std::string payload = PrioritizerPayload(pipeline);

  // Skip the entity entries to the EntityQueue: (id, weight) refs.
  std::istringstream fields(payload);
  uint64_t entities = 0;
  ASSERT_TRUE(serial::ReadU64(fields, &entities));
  for (uint64_t i = 0; i < entities; ++i) {
    uint32_t id = 0;
    double inserted_total = 0.0;
    uint64_t inserted_count = 0;
    std::vector<Comparison> pq;
    ASSERT_TRUE(serial::ReadU32(fields, &id) &&
                serial::ReadF64(fields, &inserted_total) &&
                serial::ReadU64(fields, &inserted_count) &&
                serial::ReadVec(fields, &pq, RestoreComparison));
  }
  const auto prefix_end = static_cast<size_t>(fields.tellg());
  using Refs = std::vector<std::pair<uint32_t, double>>;
  Refs refs;
  ASSERT_TRUE(serial::ReadVec(
      fields, &refs, [](std::istream& in, std::pair<uint32_t, double>* r) {
        return serial::ReadU32(in, &r->first) &&
               serial::ReadF64(in, &r->second);
      }));
  const auto refs_end = static_cast<size_t>(fields.tellg());
  ASSERT_GE(refs.size(), 2u);
  ASSERT_LE(refs.size(), kCapacity);
  ASSERT_NE(refs.front(), refs.back());
  const auto with_refs = [&](const Refs& r) {
    std::ostringstream out;
    serial::WriteVec(out, r,
                     [](std::ostream& o, const std::pair<uint32_t, double>& e) {
                       serial::WriteU32(o, e.first);
                       serial::WriteF64(o, e.second);
                     });
    return payload.substr(0, prefix_end) + out.str() + payload.substr(refs_end);
  };
  ASSERT_EQ(with_refs(refs), payload);

  Refs swapped = refs;
  std::swap(swapped.front(), swapped.back());
  // Refs below every real weight keep the order; stale ones are
  // skipped at dequeue.
  Refs full = refs;
  while (full.size() < kCapacity) {
    full.emplace_back(0, -static_cast<double>(full.size()));
  }
  Refs over = full;
  over.emplace_back(0, -static_cast<double>(over.size()));

  std::string error;
  EXPECT_TRUE(RestoreWithPrioritizer(pipeline, options, with_refs(full),
                                     &error))
      << error;
  for (const auto* bad : {&swapped, &over}) {
    error.clear();
    EXPECT_FALSE(
        RestoreWithPrioritizer(pipeline, options, with_refs(*bad), &error));
    EXPECT_NE(error.find("pier.prioritizer"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace pier
