// Cross-checks the ApproxMemoryBytes gauges against real allocation
// counts. This binary replaces the global allocation functions with
// counting wrappers (which is why these tests live in their own
// executable), so the tests can compare what a component *claims* to
// hold against the bytes it actually obtained from the heap. The
// gauges feed the shard memory budgeter and the paper-scale bench's
// RSS model; if they silently go stale against the real layout --
// exactly what happened when arenas first took over payload storage --
// these tests are the tripwire.

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/arena.h"
#include "model/entity_profile.h"
#include "model/pair_filter.h"
#include "model/profile_store.h"
#include "model/token_dictionary.h"
#include "text/tokenizer.h"

namespace {

// Live heap bytes as glibc sees them (malloc_usable_size includes the
// allocator's size-class rounding, so the count is what the process
// actually consumes, not what was requested).
std::atomic<size_t> g_live_bytes{0};
std::atomic<size_t> g_alloc_calls{0};

void* CountedAlloc(size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* CountedAlignedAlloc(size_t n, size_t align) {
  void* p = std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void* operator new(size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<size_t>(a));
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }

namespace pier {
namespace {

size_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

EntityProfile MakeProfile(ProfileId id, int payload_tokens) {
  EntityProfile p;
  p.id = id;
  p.source = 0;
  std::vector<Attribute> attrs;
  std::string title;
  for (int t = 0; t < payload_tokens; ++t) {
    title += "tok" + std::to_string((id * 31 + t) % 977) + " ";
  }
  attrs.push_back({"title", title});
  attrs.push_back({"year", std::to_string(1900 + id % 120)});
  p.set_attributes(std::move(attrs));
  return p;
}

TEST(CountingAllocatorTest, ArenaFootprintMatchesAllocatedBytes) {
  const size_t before = LiveBytes();
  {
    TokenArena arena;
    std::vector<TokenId> span(1000);
    for (int i = 0; i < 300; ++i) {
      arena.Append(span.data(), span.size());
    }
    // The arena's self-report vs real heap growth. `span` and the
    // chunk directory vector are the only allocations the gauge does
    // not see byte-exactly (it counts directory capacity at element
    // size, not malloc's rounding), so the two must agree within a
    // small envelope rather than exactly.
    const size_t claimed = arena.ApproxMemoryBytes();
    const size_t actual = LiveBytes() - before - span.capacity() * sizeof(TokenId);
    EXPECT_GE(claimed, actual * 9 / 10);
    EXPECT_LE(claimed, actual * 11 / 10);
    // 300k items at 64Ki per chunk: the gauge must track every chunk.
    EXPECT_GE(arena.num_chunks(), 4u);
  }
  EXPECT_EQ(LiveBytes(), before);  // no leaks, all chunks returned
}

TEST(CountingAllocatorTest, ProfileStoreFootprintMatchesAllocatedBytes) {
  const size_t before = LiveBytes();
  {
    ProfileStore store;
    Tokenizer tokenizer;
    TokenDictionary dict;
    const size_t dict_before = dict.ApproxMemoryBytes();
    for (ProfileId id = 0; id < 3000; ++id) {
      EntityProfile p = MakeProfile(id, 24);
      tokenizer.TokenizeProfile(p, dict);
      store.Add(std::move(p));
    }
    // Tombstone + replace so abandoned spans are part of the picture:
    // abandoned arena memory is still allocated and must stay counted.
    for (ProfileId id = 100; id < 200; ++id) store.Remove(id);
    for (ProfileId id = 150; id < 250; ++id) {
      EntityProfile p = MakeProfile(id, 40);
      tokenizer.TokenizeProfile(p, dict);
      store.Replace(std::move(p));
    }

    const size_t claimed = store.ApproxMemoryBytes() +
                           (dict.ApproxMemoryBytes() - dict_before);
    const size_t actual = LiveBytes() - before;
    // The store gauge deliberately omits only its small Add-path
    // scratch string; everything else (chunk directory, profile
    // chunks, sidecars, both arenas, the dictionary's table/arena)
    // must reconcile with the real allocation count.
    EXPECT_GE(claimed, actual * 8 / 10)
        << "claimed=" << claimed << " actual=" << actual;
    EXPECT_LE(claimed, actual * 11 / 10)
        << "claimed=" << claimed << " actual=" << actual;
    EXPECT_GT(g_alloc_calls.load(), 0u);
  }
  // Everything sized with the store must come back. A few KB of
  // residual is process-wide lazy init (locale/metrics singletons
  // touched for the first time inside the region), not a store leak.
  EXPECT_LE(LiveBytes() - before, size_t{65536});
}

TEST(CountingAllocatorTest, PairFilterFootprintMatchesAllocatedBytes) {
  // 40k random pairs over 2k profiles (~40 partners each) put the
  // partner lists at realistic sizes.
  const size_t before = LiveBytes();
  {
    PairFilter filter;
    uint64_t state = 12345;
    for (int i = 0; i < 40000; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const auto x = static_cast<ProfileId>((state >> 20) % 2000);
      const auto y = static_cast<ProfileId>((state >> 40) % 2000);
      if (x != y) (void)filter.TestAndAdd(x, y);
    }
    for (ProfileId id = 0; id < 2000; id += 10) (void)filter.Retract(id);
    const size_t claimed = filter.ApproxMemoryBytes();
    const size_t actual = LiveBytes() - before;
    // With glibc the claim is within 2%. Sanitizer allocators report
    // the requested size from malloc_usable_size, without the
    // per-block header word the estimate counts, so there it reads
    // high.
    EXPECT_GE(claimed, actual * 9 / 10)
        << "claimed=" << claimed << " actual=" << actual;
    EXPECT_LE(claimed, actual * 3 / 2)
        << "claimed=" << claimed << " actual=" << actual;
  }
  EXPECT_EQ(LiveBytes(), before);
}

TEST(CountingAllocatorTest, PairRegistryFootprintMatchesAllocatedBytes) {
  // The pair registry (PairFilter) is a table indexed by profile id:
  // one list header per id up to the largest recorded, a heap block per
  // non-empty partner list. Pairs only among every third id of 30k
  // leave two thirds of the slots empty; Retract then empties some
  // lists and shrinks others, and the gauge must track both the table
  // and the surviving lists.
  const size_t before = LiveBytes();
  {
    PairFilter registry;
    uint64_t state = 777;
    for (int i = 0; i < 60000; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const auto x = static_cast<ProfileId>((state >> 20) % 10000 * 3);
      const auto y = static_cast<ProfileId>((state >> 40) % 10000 * 3);
      if (x != y) (void)registry.TestAndAdd(x, y);
    }
    for (ProfileId id = 0; id < 30000; id += 21) (void)registry.Retract(id);
    const size_t claimed = registry.ApproxMemoryBytes();
    const size_t actual = LiveBytes() - before;
    EXPECT_GE(claimed, actual * 9 / 10)
        << "claimed=" << claimed << " actual=" << actual;
    EXPECT_LE(claimed, actual * 11 / 10)
        << "claimed=" << claimed << " actual=" << actual;
  }
  EXPECT_EQ(LiveBytes(), before);
}

TEST(CountingAllocatorTest, TokenDictionaryFootprintMatchesAllocatedBytes) {
  // 100k spellings of 5-9 bytes: the id table has grown several times,
  // the entry arena spans a handful of chunks, and the entry index is
  // a vector that doubled its way up.
  std::vector<std::string> spellings;
  for (int i = 0; i < 100000; ++i) {
    spellings.push_back("tok" + std::to_string(i));
  }
  const size_t before = LiveBytes();
  {
    TokenDictionary dict;
    for (const std::string& s : spellings) (void)dict.Intern(s);
    const size_t claimed = dict.ApproxMemoryBytes();
    const size_t actual = LiveBytes() - before;
    EXPECT_GE(claimed, actual * 9 / 10)
        << "claimed=" << claimed << " actual=" << actual;
    EXPECT_LE(claimed, actual * 11 / 10)
        << "claimed=" << claimed << " actual=" << actual;
  }
  EXPECT_EQ(LiveBytes(), before);
}

}  // namespace
}  // namespace pier
