// Incremental token dictionary: interns token strings to dense
// TokenIds. The blocking layer keys its block collection by TokenId,
// so the dictionary is shared state between Data Reading and
// Incremental Blocking. Blocking needs nothing from a token but a
// stable key, so the dictionary stores spellings and ids only. On the
// sharded path the router's dictionary is the only one: shard engines
// receive shard-local ids and keep their own dictionary empty (see
// stream/sharded_pipeline.h). Spellings are never forgotten -- ids are
// dense and shard routing hashes spellings, so a retracted profile
// leaves its tokens interned.
//
// Memory layout (paper scale): each spelling is one length-prefixed
// entry (LEB128 length, then the bytes) in an append-only char arena
// (model/arena.h), and the id map is a flat open-addressing table of
// 16-byte slots {32-bit hash tag, id + 1, entry pointer} probing
// linearly. A slot reaches its spelling directly, so a known token
// costs the slot's cache line plus the entry's, with no hop through
// the id -> spelling index; the tag rejects most collisions before the
// entry is touched. `spellings_` maps id -> entry with one 8-byte
// pointer per token. No per-token heap allocation, and no duplicate
// copy of a spelling as a map key.

#ifndef PIER_MODEL_TOKEN_DICTIONARY_H_
#define PIER_MODEL_TOKEN_DICTIONARY_H_

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "model/arena.h"
#include "model/types.h"

namespace pier {

class TokenDictionary {
 public:
  TokenDictionary() = default;

  // Not copyable (dictionaries are large and shared by reference).
  TokenDictionary(const TokenDictionary&) = delete;
  TokenDictionary& operator=(const TokenDictionary&) = delete;

  // Returns the id for `token`, interning it if new.
  TokenId Intern(std::string_view token);

  // Intern for a caller that already has HashString(token), e.g. the
  // tokenizer, which hashes while it scans.
  TokenId Intern(std::string_view token, uint64_t hash);

  // Hints the CPU to fetch the home slot of a token with this hash, so
  // a batch of Interns can overlap its cache misses.
  void Prefetch(uint64_t hash) const {
    if (!table_.empty()) {
      __builtin_prefetch(&table_[static_cast<uint32_t>(hash) &
                                 (table_.size() - 1)]);
    }
  }

  // Returns the id for `token` or kInvalidTokenId if never interned.
  TokenId Lookup(std::string_view token) const;

  // View into the spelling arena; valid for the dictionary's lifetime.
  std::string_view Spelling(TokenId id) const;

  size_t size() const { return spellings_.size(); }

  // Serializes every interned spelling in id order (canonical: same
  // dictionary, same bytes).
  void Snapshot(std::ostream& out) const;

  // Restores a Snapshot payload into this dictionary, which must be
  // empty. Returns false on decode failure.
  bool Restore(std::istream& in);

  // Heap footprint estimate: spelling arena, entry index and id table.
  size_t ApproxMemoryBytes() const;

 private:
  // One open-addressing slot. id_plus_one == 0 marks an empty slot
  // (TokenId 0 is valid, so ids are stored shifted by one). The tag is
  // the low 32 bits of the token's hash, so it also gives the home
  // slot (tag & mask) when the table grows.
  struct Slot {
    uint32_t tag = 0;
    uint32_t id_plus_one = 0;
    const char* entry = nullptr;  // length-prefixed spelling
  };
  static_assert(sizeof(Slot) == 16);

  // Returns the slot holding `token` (hash `h`) or the empty slot
  // where it belongs. The table is never full (grown at 70% load).
  size_t FindSlot(uint64_t h, std::string_view token) const;
  void GrowTable();

  std::vector<Slot> table_;  // power-of-two size, linear probing
  std::vector<const char*> spellings_;  // id -> arena entry
  TextArena spelling_arena_;
};

}  // namespace pier

#endif  // PIER_MODEL_TOKEN_DICTIONARY_H_
