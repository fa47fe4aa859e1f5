// Append-only span arenas for the hot per-profile payloads (token
// lists, flattened text, encoded attributes): one contiguous chunked
// buffer per payload kind instead of one heap allocation per profile.
//
// Address-stability contract (the same chunked-directory trick as
// ProfileStore): memory is allocated in fixed-size chunks that are
// never resized or relocated, so a pointer returned by Append stays
// valid for the arena's lifetime. A span never straddles a chunk
// boundary -- when the tail of the current chunk is too small, it is
// abandoned (accounted, not reused) and the span starts a fresh chunk.
//
// Threading contract: all mutation (Append, Abandon, Clear) is
// single-writer, serialized by the owner (ProfileStore's Add/Remove/
// Replace path). Concurrent readers never traverse the arena's own
// bookkeeping -- they dereference raw `const T*` spans published
// through EntityProfile records, and the release-store of
// ProfileStore's size counter orders the arena writes before any
// reader can learn the profile id (see model/profile_store.h). This is
// why the chunk directory here needs no atomics at all.
//
// Abandoned spans (tombstoned or replaced profiles, straddle padding)
// stay allocated -- ids are never reused and readers may still hold
// the old span -- but are tracked so memory accounting and tests can
// see the dead weight (see abandoned_items()).

#ifndef PIER_MODEL_ARENA_H_
#define PIER_MODEL_ARENA_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "model/types.h"
#include "util/check.h"

namespace pier {

template <typename T>
class SpanArena {
 public:
  // 64Ki items per chunk: 256KB chunks for TokenId, 64KB for char.
  // Oversized appends get a dedicated exact-size chunk, so there is no
  // upper bound on span length.
  static constexpr size_t kDefaultChunkItems = size_t{1} << 16;

  explicit SpanArena(size_t chunk_items = kDefaultChunkItems)
      : chunk_items_(chunk_items) {
    PIER_CHECK(chunk_items_ > 0);
  }

  SpanArena(const SpanArena&) = delete;
  SpanArena& operator=(const SpanArena&) = delete;

  // Copies `len` items into the arena and returns their stable
  // address. len == 0 is valid and returns a (stable, dereferenceable
  // for zero items) pointer into the current chunk.
  const T* Append(const T* data, size_t len) {
    T* dest = Allocate(len);
    if (len > 0) std::memcpy(dest, data, len * sizeof(T));
    return dest;
  }

  // Reserves `len` contiguous, uninitialized items and returns their
  // stable address, for a caller that writes a span in place (same
  // placement and accounting as Append).
  T* Allocate(size_t len) {
    if (chunks_.empty() || used_ + len > chunks_.back().capacity) {
      if (!chunks_.empty()) {
        // The straddle tail is dead weight, like a removed profile's
        // span, but tracked separately so live_items() stays exact.
        padding_items_ += chunks_.back().capacity - used_;
      }
      Chunk chunk;
      chunk.capacity = len > chunk_items_ ? len : chunk_items_;
      chunk.data.reset(new T[chunk.capacity]);
      chunks_.push_back(std::move(chunk));
      used_ = 0;
    }
    T* dest = chunks_.back().data.get() + used_;
    used_ += len;
    total_items_ += len;
    return dest;
  }

  // Marks `len` previously appended items as dead (tombstone /
  // replace). Accounting only: the memory stays valid for readers
  // still holding the span.
  void Abandon(size_t len) {
    abandoned_items_ += len;
    PIER_DCHECK(abandoned_items_ <= total_items_);
  }

  // Items ever appended (live + abandoned).
  size_t total_items() const { return total_items_; }
  // Items dead via Abandon (tombstoned / replaced spans).
  size_t abandoned_items() const { return abandoned_items_; }
  // Chunk-straddle padding items (allocated, never part of any span).
  size_t padding_items() const { return padding_items_; }
  size_t live_items() const { return total_items_ - abandoned_items_; }

  size_t num_chunks() const { return chunks_.size(); }

  // Bytes actually allocated (chunks + directory), the number the
  // ProfileStore memory accounting reports.
  size_t ApproxMemoryBytes() const {
    size_t bytes = chunks_.capacity() * sizeof(Chunk);
    for (const Chunk& c : chunks_) bytes += c.capacity * sizeof(T);
    return bytes;
  }

  void Clear() {
    chunks_.clear();
    used_ = 0;
    total_items_ = 0;
    abandoned_items_ = 0;
    padding_items_ = 0;
  }

 private:
  struct Chunk {
    std::unique_ptr<T[]> data;
    size_t capacity = 0;
  };

  size_t chunk_items_;
  std::vector<Chunk> chunks_;
  size_t used_ = 0;  // items used in chunks_.back()
  size_t total_items_ = 0;
  size_t abandoned_items_ = 0;
  size_t padding_items_ = 0;
};

// The two paper-scale arenas owned by ProfileStore: sorted TokenId
// lists, and byte payloads (flat_text plus the encoded attribute
// blobs, see model/entity_profile.h).
using TokenArena = SpanArena<TokenId>;
using TextArena = SpanArena<char>;

}  // namespace pier

#endif  // PIER_MODEL_ARENA_H_
