#include "model/token_dictionary.h"

#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include "util/check.h"
#include "util/hashing.h"
#include "util/serial.h"

namespace pier {

namespace {

// An arena entry is the spelling's length as a LEB128 varint (one byte
// below 128, which every default-options token is), then its bytes.
size_t LengthPrefixSize(size_t len) {
  size_t bytes = 1;
  while (len >= 0x80) {
    len >>= 7;
    ++bytes;
  }
  return bytes;
}

inline std::string_view EntrySpelling(const char* entry) {
  size_t len = 0;
  int shift = 0;
  unsigned char byte;
  do {
    byte = static_cast<unsigned char>(*entry++);
    len |= static_cast<size_t>(byte & 0x7f) << shift;
    shift += 7;
  } while (byte & 0x80);
  return {entry, len};
}

}  // namespace

size_t TokenDictionary::FindSlot(uint64_t h, std::string_view token) const {
  const size_t mask = table_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(h);
  size_t i = tag & mask;
  for (;;) {
    const Slot& slot = table_[i];
    if (slot.id_plus_one == 0) return i;
    if (slot.tag == tag && EntrySpelling(slot.entry) == token) return i;
    i = (i + 1) & mask;
  }
}

void TokenDictionary::GrowTable() {
  const size_t new_size = table_.empty() ? 1024 : table_.size() * 2;
  // The home slot is taken from the 32-bit tag.
  PIER_CHECK(new_size <= (size_t{1} << 32));
  std::vector<Slot> old = std::move(table_);
  table_.assign(new_size, Slot{});
  const size_t mask = new_size - 1;
  for (const Slot& slot : old) {
    if (slot.id_plus_one == 0) continue;
    size_t i = slot.tag & mask;
    while (table_[i].id_plus_one != 0) i = (i + 1) & mask;
    table_[i] = slot;
  }
}

TokenId TokenDictionary::Intern(std::string_view token) {
  return Intern(token, HashString(token));
}

TokenId TokenDictionary::Intern(std::string_view token, uint64_t hash) {
  PIER_DCHECK(hash == HashString(token));
  // Grow at 70% load; spellings_.size() doubles as the occupancy count.
  if (spellings_.size() * 10 >= table_.size() * 7) GrowTable();
  const size_t i = FindSlot(hash, token);
  if (table_[i].id_plus_one != 0) return table_[i].id_plus_one - 1;
  const size_t prefix = LengthPrefixSize(token.size());
  char* entry = spelling_arena_.Allocate(prefix + token.size());
  size_t len = token.size();
  for (size_t b = 0; b + 1 < prefix; ++b, len >>= 7) {
    entry[b] = static_cast<char>((len & 0x7f) | 0x80);
  }
  entry[prefix - 1] = static_cast<char>(len);
  if (!token.empty()) std::memcpy(entry + prefix, token.data(), token.size());
  const TokenId id = static_cast<TokenId>(spellings_.size());
  spellings_.push_back(entry);
  table_[i] = Slot{static_cast<uint32_t>(hash), id + 1, entry};
  return id;
}

TokenId TokenDictionary::Lookup(std::string_view token) const {
  if (table_.empty()) return kInvalidTokenId;
  const Slot& slot = table_[FindSlot(HashString(token), token)];
  return slot.id_plus_one == 0 ? kInvalidTokenId : slot.id_plus_one - 1;
}

std::string_view TokenDictionary::Spelling(TokenId id) const {
  PIER_DCHECK(id < spellings_.size());
  return EntrySpelling(spellings_[id]);
}

void TokenDictionary::Snapshot(std::ostream& out) const {
  serial::WriteU64(out, spellings_.size());
  for (size_t i = 0; i < spellings_.size(); ++i) {
    serial::WriteString(out, EntrySpelling(spellings_[i]));
  }
}

bool TokenDictionary::Restore(std::istream& in) {
  if (!spellings_.empty()) return false;
  uint64_t count = 0;
  if (!serial::ReadU64(in, &count)) return false;
  std::string spelling;
  for (uint64_t i = 0; i < count; ++i) {
    if (!serial::ReadString(in, &spelling)) return false;
    // Duplicate spellings would break the id == index invariant.
    if (Intern(spelling) != static_cast<TokenId>(i)) return false;
  }
  return true;
}

size_t TokenDictionary::ApproxMemoryBytes() const {
  return spelling_arena_.ApproxMemoryBytes() +
         spellings_.capacity() * sizeof(const char*) +
         table_.capacity() * sizeof(Slot);
}

}  // namespace pier
