// Tests for src/util: bounded priority queue (including randomized
// differential tests against a multiset oracle), Bloom filters,
// deterministic RNG, moving averages, CSV escaping, and hashing.

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/bloom_filter.h"
#include "util/bounded_priority_queue.h"
#include "util/counting_bloom_filter.h"
#include "util/csv_writer.h"
#include "util/hashing.h"
#include "util/moving_average.h"
#include "util/rng.h"
#include "util/scalable_bloom_filter.h"
#include "util/sorted_run_queue.h"
#include "util/stopwatch.h"

namespace pier {
namespace {

// ---------------------------------------------------------------------------
// BoundedPriorityQueue
// ---------------------------------------------------------------------------

TEST(BoundedPriorityQueueTest, EmptyQueueBasics) {
  BoundedPriorityQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedPriorityQueueTest, SingleElement) {
  BoundedPriorityQueue<int> q;
  q.Push(42);
  EXPECT_EQ(q.PeekMax(), 42);
  EXPECT_EQ(q.PeekMin(), 42);
  EXPECT_EQ(q.PopMax(), 42);
  EXPECT_TRUE(q.empty());
}

TEST(BoundedPriorityQueueTest, TwoElementsOrdered) {
  BoundedPriorityQueue<int> q;
  q.Push(5);
  q.Push(9);
  EXPECT_EQ(q.PeekMin(), 5);
  EXPECT_EQ(q.PeekMax(), 9);
}

TEST(BoundedPriorityQueueTest, PopMaxDescendingOrder) {
  BoundedPriorityQueue<int> q;
  for (const int x : {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}) q.Push(x);
  std::vector<int> popped;
  while (!q.empty()) popped.push_back(q.PopMax());
  EXPECT_TRUE(std::is_sorted(popped.rbegin(), popped.rend()));
  EXPECT_EQ(popped.front(), 9);
  EXPECT_EQ(popped.back(), 1);
}

TEST(BoundedPriorityQueueTest, PopMinAscendingOrder) {
  BoundedPriorityQueue<int> q;
  for (const int x : {3, 1, 4, 1, 5, 9, 2, 6}) q.Push(x);
  std::vector<int> popped;
  while (!q.empty()) popped.push_back(q.PopMin());
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
}

TEST(BoundedPriorityQueueTest, PushBoundedEvictsMinimum) {
  BoundedPriorityQueue<int> q(3);
  EXPECT_TRUE(q.PushBounded(1));
  EXPECT_TRUE(q.PushBounded(2));
  EXPECT_TRUE(q.PushBounded(3));
  // Full: 4 replaces the minimum (1).
  EXPECT_TRUE(q.PushBounded(4));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.PeekMin(), 2);
  EXPECT_EQ(q.PeekMax(), 4);
}

TEST(BoundedPriorityQueueTest, PushBoundedRejectsWorseThanMin) {
  BoundedPriorityQueue<int> q(2);
  q.PushBounded(10);
  q.PushBounded(20);
  EXPECT_FALSE(q.PushBounded(5));
  EXPECT_FALSE(q.PushBounded(10));  // equal to min: rejected
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.PeekMin(), 10);
}

TEST(BoundedPriorityQueueTest, ZeroCapacityRejectsEverything) {
  BoundedPriorityQueue<int> q(0);
  EXPECT_FALSE(q.PushBounded(1));
  EXPECT_TRUE(q.empty());
}

TEST(BoundedPriorityQueueTest, CustomComparator) {
  // Greater-comparator flips semantics: PopMax yields the smallest.
  BoundedPriorityQueue<int, std::greater<int>> q;
  for (const int x : {5, 2, 8, 1}) q.Push(x);
  EXPECT_EQ(q.PopMax(), 1);
  EXPECT_EQ(q.PopMax(), 2);
}

TEST(BoundedPriorityQueueTest, ClearResets) {
  BoundedPriorityQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Clear();
  EXPECT_TRUE(q.empty());
  q.Push(7);
  EXPECT_EQ(q.PeekMax(), 7);
}

// Differential test: random interleavings of push/pop against a
// multiset oracle, parameterized over seed and capacity.
class BoundedPqDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(BoundedPqDifferentialTest, MatchesMultisetOracle) {
  const auto [seed, capacity] = GetParam();
  Rng rng(seed);
  BoundedPriorityQueue<int> q(capacity);
  std::multiset<int> oracle;

  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.UniformInt(0, 9);
    if (op < 6) {
      const int x = static_cast<int>(rng.UniformInt(0, 999));
      const bool inserted = q.PushBounded(x);
      // Oracle semantics: insert; when above capacity evict the min,
      // unless the new element IS (tied with) the min.
      if (oracle.size() < capacity) {
        oracle.insert(x);
        EXPECT_TRUE(inserted);
      } else if (!oracle.empty() && *oracle.begin() < x) {
        oracle.erase(oracle.begin());
        oracle.insert(x);
        EXPECT_TRUE(inserted);
      } else {
        EXPECT_FALSE(inserted);
      }
    } else if (op < 8) {
      ASSERT_EQ(q.empty(), oracle.empty());
      if (!oracle.empty()) {
        EXPECT_EQ(q.PopMax(), *std::prev(oracle.end()));
        oracle.erase(std::prev(oracle.end()));
      }
    } else {
      ASSERT_EQ(q.empty(), oracle.empty());
      if (!oracle.empty()) {
        EXPECT_EQ(q.PopMin(), *oracle.begin());
        oracle.erase(oracle.begin());
      }
    }
    ASSERT_EQ(q.size(), oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(q.PeekMax(), *std::prev(oracle.end()));
      ASSERT_EQ(q.PeekMin(), *oracle.begin());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundedPqDifferentialTest,
    ::testing::Combine(
        ::testing::Values(1u, 2u, 3u, 17u, 99u),
        ::testing::Values(size_t{1}, size_t{2}, size_t{7}, size_t{64},
                          BoundedPriorityQueue<int>::kUnbounded)));

// Interleaved property test mixing *unconditional* Push with
// PushBounded and both pop ends against a multiset oracle. Push may
// legally grow the queue past its capacity (PushBounded then evicts
// without shrinking below the actual size), and the tiny capacities
// exercise the size<=2 special cases of the interval heap.
TEST(BoundedPriorityQueueTest, InterleavedPushPushBoundedPopsMatchOracle) {
  Rng rng(20240806);
  for (size_t capacity = 1; capacity <= 10; ++capacity) {
    BoundedPriorityQueue<int> q(capacity);
    std::multiset<int> oracle;
    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = rng.UniformInt(0, 9);
      // Small value range so ties are common.
      const int x = static_cast<int>(rng.UniformInt(0, 31));
      if (op < 3) {
        q.Push(x);
        oracle.insert(x);
      } else if (op < 6) {
        const bool inserted = q.PushBounded(x);
        if (oracle.size() < capacity) {
          oracle.insert(x);
          ASSERT_TRUE(inserted);
        } else if (*oracle.begin() < x) {
          oracle.erase(oracle.begin());
          oracle.insert(x);
          ASSERT_TRUE(inserted);
        } else {
          ASSERT_FALSE(inserted);
        }
      } else if (op < 8) {
        ASSERT_EQ(q.empty(), oracle.empty());
        if (!oracle.empty()) {
          ASSERT_EQ(q.PopMax(), *std::prev(oracle.end()));
          oracle.erase(std::prev(oracle.end()));
        }
      } else {
        ASSERT_EQ(q.empty(), oracle.empty());
        if (!oracle.empty()) {
          ASSERT_EQ(q.PopMin(), *oracle.begin());
          oracle.erase(oracle.begin());
        }
      }
      ASSERT_EQ(q.size(), oracle.size());
      if (!oracle.empty()) {
        ASSERT_EQ(q.PeekMax(), *std::prev(oracle.end()));
        ASSERT_EQ(q.PeekMin(), *oracle.begin());
      }
    }
    // Drain alternating ends; the remaining contents must match too.
    bool from_max = true;
    while (!oracle.empty()) {
      if (from_max) {
        ASSERT_EQ(q.PopMax(), *std::prev(oracle.end()));
        oracle.erase(std::prev(oracle.end()));
      } else {
        ASSERT_EQ(q.PopMin(), *oracle.begin());
        oracle.erase(oracle.begin());
      }
      from_max = !from_max;
    }
    ASSERT_TRUE(q.empty());
  }
}

// EraseIf compacts in place and rebuilds the heap bottom-up. At every
// size from 0 to 40 (odd and even tails, the size<=2 special cases),
// the survivors must pop from both ends as the multiset oracle says,
// including after further pushes onto the rebuilt heap.
TEST(BoundedPriorityQueueTest, EraseIfMatchesOracle) {
  Rng rng(20261018);
  for (size_t n = 0; n <= 40; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      BoundedPriorityQueue<int> q;
      std::multiset<int> oracle;
      for (size_t i = 0; i < n; ++i) {
        const int x = static_cast<int>(rng.UniformInt(0, 31));
        q.Push(x);
        oracle.insert(x);
      }
      const int residue = static_cast<int>(rng.UniformInt(0, 3));
      const auto doomed = [residue](int x) { return x % 4 == residue; };
      size_t removed = 0;
      for (auto it = oracle.begin(); it != oracle.end();) {
        if (doomed(*it)) {
          it = oracle.erase(it);
          ++removed;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(q.EraseIf(doomed), removed);
      ASSERT_EQ(q.size(), oracle.size());
      for (int i = 0; i < 3; ++i) {
        const int x = static_cast<int>(rng.UniformInt(0, 31));
        q.Push(x);
        oracle.insert(x);
      }
      bool from_max = trial % 2 == 0;
      while (!oracle.empty()) {
        if (from_max) {
          ASSERT_EQ(q.PopMax(), *std::prev(oracle.end())) << n;
          oracle.erase(std::prev(oracle.end()));
        } else {
          ASSERT_EQ(q.PopMin(), *oracle.begin()) << n;
          oracle.erase(oracle.begin());
        }
        from_max = !from_max;
      }
      ASSERT_TRUE(q.empty());
    }
  }
}

// ---------------------------------------------------------------------------
// SortedRunQueue
// ---------------------------------------------------------------------------

using IntRunQueue = SortedRunQueue<int, std::less<int>>;

// BoundedPriorityQueue (PushBounded / PopMax) is the oracle: bursts of
// pushes and pops over capacities from 0 to beyond the stream (so the
// lazy trim, the merges and pops from both tiers all run), refills
// through Assign, and snapshot round trips through Sorted and
// RestoreSorted. Every pop agrees.
TEST(SortedRunQueueTest, PopsLikeBoundedPriorityQueue) {
  Rng rng(20261019);
  for (const size_t capacity : {0, 1, 2, 7, 64, 300, 5000}) {
    for (int trial = 0; trial < 4; ++trial) {
      IntRunQueue q(capacity);
      BoundedPriorityQueue<int> oracle(capacity);
      size_t pops = 0;
      for (int round = 0; round < 80; ++round) {
        const uint64_t action = rng.UniformInt(0, 9);
        if (action == 0) {
          std::vector<int> items(rng.UniformInt(0, 400));
          for (int& x : items) x = static_cast<int>(rng.UniformInt(0, 999));
          oracle.Clear();
          for (const int x : items) oracle.PushBounded(x);
          q.Assign(std::move(items));
        } else if (action == 1) {
          std::vector<int> expected = oracle.data();
          std::sort(expected.begin(), expected.end(), std::greater<int>());
          std::vector<int> sorted = q.Sorted();
          ASSERT_EQ(sorted, expected) << "capacity " << capacity;
          IntRunQueue restored(capacity);
          ASSERT_TRUE(restored.RestoreSorted(std::move(sorted)));
          q = std::move(restored);
        } else {
          for (uint64_t n = rng.UniformInt(0, 250); n > 0; --n) {
            const int x = static_cast<int>(rng.UniformInt(0, 999));
            q.Push(x);
            oracle.PushBounded(x);
          }
          for (uint64_t n = rng.UniformInt(0, 150); n > 0 && !oracle.empty();
               --n) {
            ASSERT_FALSE(q.empty());
            ASSERT_EQ(q.PopMax(), oracle.PopMax()) << "capacity " << capacity;
            ++pops;
          }
        }
        ASSERT_EQ(q.empty(), oracle.empty()) << "capacity " << capacity;
      }
      while (!oracle.empty()) {
        ASSERT_EQ(q.PopMax(), oracle.PopMax());
        ++pops;
      }
      EXPECT_TRUE(q.empty());
      if (capacity > 0) {
        EXPECT_GT(pops, 0u);
      }
    }
  }
}

TEST(SortedRunQueueTest, RestoreSortedRejectsUnsortedAndOverCapacity) {
  IntRunQueue q(3);
  EXPECT_TRUE(q.RestoreSorted({9, 5, 5}));  // equal neighbours allowed
  EXPECT_FALSE(q.RestoreSorted({5, 9}));
  EXPECT_FALSE(q.RestoreSorted({9, 7, 5, 3}));
  // A rejected payload leaves the queue as it was.
  EXPECT_EQ(q.Sorted(), (std::vector<int>{9, 5, 5}));
  EXPECT_EQ(q.PopMax(), 9);
}

// ---------------------------------------------------------------------------
// BloomFilter / ScalableBloomFilter
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(1000, 0.01);
  for (uint64_t k = 0; k < 1000; ++k) filter.Add(k * 7919);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(filter.MayContain(k * 7919)) << k;
  }
}

TEST(BloomFilterTest, FalsePositiveRateNearDesign) {
  BloomFilter filter(5000, 0.01);
  for (uint64_t k = 0; k < 5000; ++k) filter.Add(Mix64(k));
  size_t false_positives = 0;
  const size_t probes = 20000;
  for (uint64_t k = 0; k < probes; ++k) {
    if (filter.MayContain(Mix64(k + 1000000))) ++false_positives;
  }
  const double rate =
      static_cast<double>(false_positives) / static_cast<double>(probes);
  EXPECT_LT(rate, 0.03);  // 3x headroom over the 1% design point
}

TEST(BloomFilterTest, TracksCapacity) {
  BloomFilter filter(10, 0.1);
  EXPECT_FALSE(filter.AtCapacity());
  for (uint64_t k = 0; k < 10; ++k) filter.Add(k);
  EXPECT_TRUE(filter.AtCapacity());
}

TEST(BloomFilterTest, HashCountDerivedFromClampedBits) {
  // Regression: for tiny capacities m = ceil(-n ln p / ln^2 2) rounds
  // up to one 512-bit block, and k must follow the rounded bit count
  // -- k = round(num_bits / n * ln 2) -- not the unrounded m. Deriving
  // k from the pre-rounding m under-hashes the (larger) actual array
  // and pushes the realized FP rate off-design.
  constexpr double kLn2 = 0.6931471805599453;
  for (size_t n = 1; n <= 8; ++n) {
    const BloomFilter filter(n, 0.01);
    EXPECT_EQ(filter.num_bits(), 512u);
    const int expected = std::max(
        1, static_cast<int>(std::round(
               static_cast<double>(filter.num_bits()) /
               static_cast<double>(n) * kLn2)));
    EXPECT_EQ(filter.num_hashes(), expected) << "n=" << n;
  }
}

TEST(BloomFilterTest, SmallCapacityFalsePositiveRateNearDesign) {
  // At the rounding boundary the filter must still meet (or beat) its
  // design FP rate: with k sized for the rounded 512-bit array the
  // rate is far below 1%; with k sized for the unrounded m it is not.
  for (const size_t n : {2u, 4u, 8u}) {
    BloomFilter filter(n, 0.01);
    for (uint64_t k = 0; k < n; ++k) filter.Add(Mix64(k));
    size_t false_positives = 0;
    const size_t probes = 20000;
    for (uint64_t k = 0; k < probes; ++k) {
      if (filter.MayContain(Mix64(k + 500000))) ++false_positives;
    }
    const double rate =
        static_cast<double>(false_positives) / static_cast<double>(probes);
    EXPECT_LT(rate, 0.02) << "n=" << n;
    // No false negatives, as always.
    for (uint64_t k = 0; k < n; ++k) EXPECT_TRUE(filter.MayContain(Mix64(k)));
  }
}

TEST(ScalableBloomFilterTest, GrowsSlices) {
  ScalableBloomFilter::Options options;
  options.initial_capacity = 64;
  ScalableBloomFilter filter(options);
  EXPECT_EQ(filter.num_slices(), 1u);
  for (uint64_t k = 0; k < 1000; ++k) filter.Add(k);
  EXPECT_GT(filter.num_slices(), 1u);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(filter.MayContain(k));
  }
}

TEST(ScalableBloomFilterTest, TestAndAddSemantics) {
  ScalableBloomFilter filter;
  EXPECT_FALSE(filter.TestAndAdd(123));
  EXPECT_TRUE(filter.TestAndAdd(123));
}

TEST(ScalableBloomFilterTest, CompoundFalsePositiveRateBounded) {
  ScalableBloomFilter::Options options;
  options.initial_capacity = 256;
  options.fp_rate = 0.01;
  ScalableBloomFilter filter(options);
  for (uint64_t k = 0; k < 20000; ++k) filter.Add(Mix64(k));
  size_t false_positives = 0;
  const size_t probes = 20000;
  for (uint64_t k = 0; k < probes; ++k) {
    if (filter.MayContain(Mix64(k + (1ULL << 40)))) ++false_positives;
  }
  const double rate =
      static_cast<double>(false_positives) / static_cast<double>(probes);
  EXPECT_LT(rate, 0.05);
}

TEST(ScalableBloomFilterTest, MemoryGrowsSubquadratically) {
  ScalableBloomFilter::Options options;
  options.initial_capacity = 128;
  ScalableBloomFilter filter(options);
  for (uint64_t k = 0; k < 10000; ++k) filter.Add(k);
  // ~10k keys at 1% should stay far below a megabyte.
  EXPECT_LT(filter.MemoryBytes(), 1u << 20);
}

TEST(BloomFilterTest, BlockedLayoutNoFalseNegatives) {
  BloomFilter filter(5000, 0.01);
  EXPECT_EQ(filter.num_bits() % 512, 0u);
  for (uint64_t k = 0; k < 5000; ++k) filter.Add(Mix64(k));
  for (uint64_t k = 0; k < 5000; ++k) EXPECT_TRUE(filter.MayContain(Mix64(k)));
}

TEST(BloomFilterTest, BlockedLayoutFalsePositiveRateNearDesign) {
  // Split-block filters trade FP rate for single-cache-line probes;
  // the realized rate stays within a small constant of the design
  // point.
  BloomFilter filter(10000, 0.01);
  for (uint64_t k = 0; k < 10000; ++k) filter.Add(Mix64(k));
  size_t false_positives = 0;
  const size_t probes = 50000;
  for (uint64_t k = 0; k < probes; ++k) {
    if (filter.MayContain(Mix64(k + 1000000))) ++false_positives;
  }
  const double rate =
      static_cast<double>(false_positives) / static_cast<double>(probes);
  EXPECT_LT(rate, 0.05);
}

TEST(BloomFilterTest, BlockedLayoutSnapshotRoundTrips) {
  BloomFilter filter(1000, 0.01);
  for (uint64_t k = 0; k < 1000; ++k) filter.Add(Mix64(k));

  std::ostringstream out;
  filter.Snapshot(out);
  std::istringstream in(out.str());
  const auto restored = BloomFilter::FromSnapshot(in);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->num_bits(), filter.num_bits());
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(restored->MayContain(Mix64(k)));
  }
  std::ostringstream again;
  restored->Snapshot(again);
  EXPECT_EQ(again.str(), out.str());
}

// The pre-layout-flag format carried the same fields without the
// leading zero sentinel and layout byte; the flat layouts that wrote
// it (and layout bytes 0/1) are gone, so such payloads must be
// rejected -- never decoded with the wrong bit mapping, never an
// abort.
TEST(BloomFilterTest, LegacySnapshotRejected) {
  BloomFilter filter(256, 0.01);
  for (uint64_t k = 0; k < 200; ++k) filter.Add(Mix64(k));
  std::ostringstream out;
  filter.Snapshot(out);
  const std::string bytes = out.str();
  ASSERT_EQ(bytes.substr(0, 9), std::string(8, '\0') + '\x02');

  std::istringstream legacy(bytes.substr(9));
  EXPECT_EQ(BloomFilter::FromSnapshot(legacy), nullptr);
  for (const char flat_layout : {'\x00', '\x01'}) {
    std::string flat = bytes;
    flat[8] = flat_layout;
    std::istringstream in(flat);
    EXPECT_EQ(BloomFilter::FromSnapshot(in), nullptr);
  }
}

TEST(ScalableBloomFilterTest, LegacySnapshotRejected) {
  ScalableBloomFilter::Options options;
  options.initial_capacity = 64;
  ScalableBloomFilter filter(options);
  for (uint64_t k = 0; k < 500; ++k) filter.Add(Mix64(k));
  std::ostringstream out;
  filter.Snapshot(out);
  const std::string bytes = out.str();
  ASSERT_EQ(bytes.substr(0, 9), std::string(8, '\0') + '\x02');

  ScalableBloomFilter restored;
  restored.Add(Mix64(1u << 20));
  std::istringstream legacy(bytes.substr(9));
  EXPECT_FALSE(restored.Restore(legacy));
  std::string flat = bytes;
  flat[8] = '\x01';
  std::istringstream in(flat);
  EXPECT_FALSE(restored.Restore(in));
  // A rejected payload leaves the filter untouched.
  EXPECT_EQ(restored.num_insertions(), 1u);
  EXPECT_TRUE(restored.MayContain(Mix64(1u << 20)));
}

TEST(ScalableBloomFilterTest, BlockedDefaultGrowsAndRoundTrips) {
  ScalableBloomFilter filter;  // default options: kBlocked512 slices
  for (uint64_t k = 0; k < 20000; ++k) filter.Add(Mix64(k));
  EXPECT_GT(filter.num_slices(), 1u);
  for (uint64_t k = 0; k < 20000; ++k) EXPECT_TRUE(filter.MayContain(Mix64(k)));

  std::ostringstream out;
  filter.Snapshot(out);
  ScalableBloomFilter restored;
  std::istringstream in(out.str());
  ASSERT_TRUE(restored.Restore(in));
  for (uint64_t k = 0; k < 20000; ++k) {
    EXPECT_TRUE(restored.MayContain(Mix64(k)));
  }
  std::ostringstream again;
  restored.Snapshot(again);
  EXPECT_EQ(again.str(), out.str());
}

// ---------------------------------------------------------------------------
// Rng / ZipfDistribution
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t x = rng.UniformInt(10, 20);
    EXPECT_GE(x, 10u);
    EXPECT_LE(x, 20u);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(5, 5), 5u);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanNearHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(ZipfTest, SkewsTowardHead) {
  Rng rng(3);
  ZipfDistribution zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[99] * 5);
  EXPECT_GT(counts[0], 1000);
}

TEST(ZipfTest, AlphaZeroIsUniformish) {
  Rng rng(3);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 10000.0, 600.0);
  }
}

TEST(ZipfTest, SamplesWithinDomain) {
  Rng rng(4);
  ZipfDistribution zipf(7, 1.2);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 7u);
}

// ---------------------------------------------------------------------------
// Moving averages
// ---------------------------------------------------------------------------

TEST(EmaTest, FirstValueInitializes) {
  Ema ema(0.5);
  EXPECT_FALSE(ema.initialized());
  ema.Add(10.0);
  EXPECT_TRUE(ema.initialized());
  EXPECT_DOUBLE_EQ(ema.value(), 10.0);
}

TEST(EmaTest, ConvergesTowardConstant) {
  Ema ema(0.3);
  ema.Add(0.0);
  for (int i = 0; i < 50; ++i) ema.Add(100.0);
  EXPECT_NEAR(ema.value(), 100.0, 0.01);
}

TEST(WindowAverageTest, MeanOfPartialWindow) {
  WindowAverage avg(4);
  avg.Add(2.0);
  avg.Add(4.0);
  EXPECT_DOUBLE_EQ(avg.Mean(), 3.0);
  EXPECT_EQ(avg.count(), 2u);
}

TEST(WindowAverageTest, SlidesOverOldValues) {
  WindowAverage avg(3);
  avg.Add(1.0);
  avg.Add(2.0);
  avg.Add(3.0);
  avg.Add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(avg.Mean(), 5.0);
  EXPECT_EQ(avg.count(), 3u);
}

TEST(WindowAverageTest, WindowOfOneTracksLast) {
  WindowAverage avg(1);
  avg.Add(5.0);
  avg.Add(9.0);
  EXPECT_DOUBLE_EQ(avg.Mean(), 9.0);
}

TEST(WindowAverageTest, NoDriftOverMillionUpdates) {
  // Regression for running-sum FP drift: a huge sample (1e16, where
  // ulp is 2) periodically passing through the window makes the
  // incremental `sum += x - old` update lose the small samples added
  // alongside it; each passage leaves an O(ulp) residue. Over ~10k
  // passages the old code drifted the mean by O(1) -- the exact
  // resummation on ring wrap keeps it exact.
  WindowAverage avg(8);
  constexpr int kUpdates = 1000000;
  for (int i = 0; i < kUpdates; ++i) {
    const bool spike = i % 97 == 0 && i < kUpdates - 1000;
    avg.Add(spike ? 1e16 : 1.0);
  }
  // The final window holds eight 1.0s; any departure is pure drift.
  EXPECT_NEAR(avg.Mean(), 1.0, 1e-9);
}

TEST(WindowAverageTest, ScaledDriftStaysBounded) {
  // Same pattern at a smaller magnitude ratio: the mean of the clean
  // tail must be exact after the spikes leave the window.
  WindowAverage avg(4);
  for (int i = 0; i < 100000; ++i) {
    avg.Add(i % 13 == 0 ? 1e12 : 0.5);
  }
  for (int i = 0; i < 8; ++i) avg.Add(0.5);
  EXPECT_NEAR(avg.Mean(), 0.5, 1e-12);
}

// ---------------------------------------------------------------------------
// CsvWriter
// ---------------------------------------------------------------------------

TEST(CsvWriterTest, PlainRow) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.WriteRow({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(CsvWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::Escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::Escape("has,comma"), "\"has,comma\"");
  EXPECT_EQ(CsvWriter::Escape("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(CsvWriter::Escape("has\nnewline"), "\"has\nnewline\"");
}

TEST(CsvWriterTest, CountsRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.WriteRow({"x"});
  csv.WriteRow({"y"});
  EXPECT_EQ(csv.rows_written(), 2u);
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST(HashingTest, PairKeyIsSymmetric) {
  EXPECT_EQ(PairKey(3, 9), PairKey(9, 3));
  EXPECT_NE(PairKey(3, 9), PairKey(3, 10));
}

TEST(HashingTest, PairKeyPacksLosslessly) {
  const uint64_t key = PairKey(123456, 654321);
  EXPECT_EQ(key >> 32, 123456u);
  EXPECT_EQ(key & 0xffffffffu, 654321u);
}

TEST(HashingTest, HashStringDeterministic) {
  EXPECT_EQ(HashString("hello"), HashString("hello"));
  EXPECT_NE(HashString("hello"), HashString("hellp"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(HashingTest, Mix64Scrambles) {
  EXPECT_NE(Mix64(0), 0u);
  EXPECT_NE(Mix64(1), Mix64(2));
}

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double a = sw.ElapsedSeconds();
  const double b = sw.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  sw.Restart();
  EXPECT_LE(sw.ElapsedSeconds(), a + 1.0);
}

}  // namespace
}  // namespace pier
