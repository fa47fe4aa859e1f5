// Tests for model/pair_filter.h (test-and-add, retraction, canonical
// snapshot bytes, rejection of truncated payloads), the filter's
// exactness against an oracle, and golden CRC32C digests that pin the
// wire format of the scalable Bloom filters and of PairFilter.
//
// PairFilterTest keeps one instance per (exact, retractable) mode the
// filter had before the pair registry became its only structure. Every
// former user of each mode now gets the same filter, so each instance
// checks the registry's semantics -- retraction included -- for it.

#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/pair_filter.h"
#include "persist/crc32c.h"
#include "util/counting_bloom_filter.h"
#include "util/hashing.h"
#include "util/scalable_bloom_filter.h"

namespace pier {
namespace {

std::string SnapshotBytes(const PairFilter& filter) {
  std::ostringstream out;
  filter.Snapshot(out);
  return out.str();
}

// Every pair over ids [0, n).
std::vector<std::pair<ProfileId, ProfileId>> AllPairs(ProfileId n) {
  std::vector<std::pair<ProfileId, ProfileId>> pairs;
  for (ProfileId x = 0; x < n; ++x) {
    for (ProfileId y = x + 1; y < n; ++y) pairs.emplace_back(x, y);
  }
  return pairs;
}

// A former mode: `exact` chose the exact hash set over the Bloom
// filter, `retractable` was PierOptions::mutable_stream.
struct Mode {
  bool exact;
  bool retractable;
};

std::string ModeName(const ::testing::TestParamInfo<Mode>& info) {
  return std::string(info.param.exact ? "Exact" : "Bloom") +
         (info.param.retractable ? "Retractable" : "AppendOnly");
}

using PairFilterTest = ::testing::TestWithParam<Mode>;

TEST_P(PairFilterTest, TestAndAddSemantics) {
  PairFilter filter;
  EXPECT_FALSE(filter.TestAndAdd(3, 9));
  EXPECT_TRUE(filter.TestAndAdd(3, 9));
  // Pair keys are symmetric.
  EXPECT_TRUE(filter.TestAndAdd(9, 3));
  EXPECT_FALSE(filter.TestAndAdd(3, 10));
  for (const auto& [x, y] : AllPairs(40)) (void)filter.TestAndAdd(x, y);
  for (const auto& [x, y] : AllPairs(40)) {
    EXPECT_TRUE(filter.TestAndAdd(y, x)) << x << "," << y;
  }
}

TEST_P(PairFilterTest, RetractReadmitsExactlyTheRetractedPairs) {
  PairFilter filter;
  const auto pairs = AllPairs(40);
  for (const auto& [x, y] : pairs) ASSERT_FALSE(filter.TestAndAdd(x, y));
  constexpr ProfileId kRetracted = 7;
  EXPECT_EQ(filter.Retract(kRetracted), 39u);
  // Every other pair stays filtered; checked first, since a re-admitted
  // pair is recorded again by its TestAndAdd.
  for (const auto& [x, y] : pairs) {
    if (x != kRetracted && y != kRetracted) {
      EXPECT_TRUE(filter.TestAndAdd(x, y)) << x << "," << y;
    }
  }
  for (const auto& [x, y] : pairs) {
    if (x == kRetracted || y == kRetracted) {
      EXPECT_FALSE(filter.TestAndAdd(x, y)) << x << "," << y;
    }
  }
  // The re-admitted pairs were recorded again, once each.
  EXPECT_EQ(filter.Retract(kRetracted), 39u);
  EXPECT_EQ(filter.Retract(kRetracted), 0u);
}

TEST_P(PairFilterTest, SnapshotRestoreSnapshotIsByteIdentical) {
  PairFilter filter;
  for (const auto& [x, y] : AllPairs(60)) (void)filter.TestAndAdd(x, y);
  (void)filter.Retract(11);
  (void)filter.Retract(30);
  const std::string bytes = SnapshotBytes(filter);

  PairFilter restored;
  std::istringstream in(bytes);
  ASSERT_TRUE(restored.Restore(in));
  EXPECT_EQ(SnapshotBytes(restored), bytes);
  EXPECT_EQ(restored.ApproxMemoryBytes() > 0, filter.ApproxMemoryBytes() > 0);
  // The restored filter answers like the original.
  for (const auto& [x, y] : AllPairs(60)) {
    EXPECT_EQ(restored.TestAndAdd(x, y), filter.TestAndAdd(x, y))
        << x << "," << y;
  }
}

TEST_P(PairFilterTest, TruncatedPayloadsRejected) {
  PairFilter filter;
  for (const auto& [x, y] : AllPairs(30)) (void)filter.TestAndAdd(x, y);
  (void)filter.Retract(4);
  const std::string bytes = SnapshotBytes(filter);
  for (size_t len = 0; len < bytes.size(); ++len) {
    PairFilter restored;
    (void)restored.TestAndAdd(1, 2);
    std::istringstream in(bytes.substr(0, len));
    ASSERT_FALSE(restored.Restore(in)) << "prefix of " << len << " bytes";
    // A rejected payload leaves the filter as it was.
    ASSERT_TRUE(restored.TestAndAdd(1, 2)) << len;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, PairFilterTest,
                         ::testing::Values(Mode{false, false},
                                           Mode{false, true}, Mode{true, false},
                                           Mode{true, true}),
                         ModeName);

// The filter is exact: over a random stream of 200k pairs (about 40
// partners per profile) it reports a pair as seen exactly when it was
// recorded and not retracted since.
TEST(RetractablePairFilterTest, NoFalsePositivesAndExactRetraction) {
  PairFilter filter;
  std::unordered_set<uint64_t> recorded;
  constexpr ProfileId kProfiles = 10000;
  uint64_t state = 2024;
  const auto next_pair = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const auto x = static_cast<ProfileId>((state >> 16) % kProfiles);
    auto y = static_cast<ProfileId>((state >> 40) % kProfiles);
    if (y == x) y = (x + 1) % kProfiles;
    return std::make_pair(x, y);
  };
  size_t repeats = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto [x, y] = next_pair();
    const bool fresh = recorded.insert(PairKey(x, y)).second;
    repeats += fresh ? 0 : 1;
    ASSERT_EQ(filter.TestAndAdd(x, y), !fresh) << x << "," << y;
  }
  // Some pairs repeat, so both answers were exercised.
  EXPECT_GT(repeats, 0u);

  // Retract every 97th id; each withdraws exactly its recorded pairs.
  std::vector<std::pair<ProfileId, ProfileId>> withdrawn;
  for (ProfileId id = 3; id < kProfiles; id += 97) {
    size_t expected = 0;
    for (const uint64_t key : recorded) {
      const auto x = static_cast<ProfileId>(key >> 32);
      const auto y = static_cast<ProfileId>(key & 0xffffffffu);
      expected += (x == id || y == id) ? 1 : 0;
    }
    EXPECT_EQ(filter.Retract(id), expected) << id;
    for (auto it = recorded.begin(); it != recorded.end();) {
      const auto x = static_cast<ProfileId>(*it >> 32);
      const auto y = static_cast<ProfileId>(*it & 0xffffffffu);
      if (x == id || y == id) {
        withdrawn.emplace_back(x, y);
        it = recorded.erase(it);
      } else {
        ++it;
      }
    }
  }
  ASSERT_GT(withdrawn.size(), 1000u);
  // Every surviving pair is still seen (checked first: a re-admitted
  // pair is recorded again by its TestAndAdd) ...
  for (const uint64_t key : recorded) {
    const auto x = static_cast<ProfileId>(key >> 32);
    const auto y = static_cast<ProfileId>(key & 0xffffffffu);
    ASSERT_TRUE(filter.TestAndAdd(x, y)) << x << "," << y;
  }
  // ... and every withdrawn pair is unseen again.
  for (const auto& [x, y] : withdrawn) {
    ASSERT_FALSE(filter.TestAndAdd(x, y)) << x << "," << y;
  }
}

// ---------------------------------------------------------------------------
// Wire-format golden digests. The expected values were recorded from
// the implementation before the filters shared one scalable template
// and one PairFilter; a change to any of them is a snapshot format
// change. PairFilter's digest is the pair registry's bytes as the
// retractable mode wrote them before the registry became the only
// mode.

uint32_t SnapshotCrc(const auto& filter) {
  std::ostringstream out;
  filter.Snapshot(out);
  return persist::Crc32c(out.str());
}

TEST(FilterWireFormatGoldenTest, ScalableBloomFilter) {
  ScalableBloomFilter::Options options;
  options.initial_capacity = 64;
  ScalableBloomFilter filter(options);
  for (uint64_t i = 0; i < 1000; ++i) filter.Add(Mix64(i));
  ASSERT_EQ(filter.num_slices(), 5u);
  EXPECT_EQ(SnapshotCrc(filter), 0x0999107au);
}

TEST(FilterWireFormatGoldenTest, ScalableCountingBloomFilter) {
  ScalableCountingBloomFilter::Options options;
  options.initial_capacity = 64;
  ScalableCountingBloomFilter filter(options);
  for (uint64_t i = 0; i < 1000; ++i) filter.Add(Mix64(i));
  for (uint64_t i = 0; i < 1000; i += 7) filter.Remove(Mix64(i));
  ASSERT_EQ(filter.num_slices(), 5u);
  EXPECT_EQ(SnapshotCrc(filter), 0x0d5a5ac8u);
}

TEST(FilterWireFormatGoldenTest, PairFilterEveryMode) {
  std::vector<std::pair<ProfileId, ProfileId>> pairs;
  for (uint64_t i = 0; i < 3000; ++i) {
    const auto x = static_cast<ProfileId>(Mix64(i) % 300);
    const auto y = static_cast<ProfileId>(Mix64(i + (1ull << 32)) % 300);
    if (x != y) pairs.emplace_back(x, y);
  }
  PairFilter filter;
  for (const auto& [x, y] : pairs) (void)filter.TestAndAdd(x, y);
  for (const ProfileId id : {5u, 42u, 123u}) (void)filter.Retract(id);
  for (size_t i = 0; i < 500; ++i) {
    (void)filter.TestAndAdd(pairs[i].first, pairs[i].second);
  }
  EXPECT_EQ(SnapshotCrc(filter), 0x1d04b989u);
}

}  // namespace
}  // namespace pier
