#include "model/token_dictionary.h"

#include <istream>
#include <ostream>
#include <string>

#include "util/check.h"
#include "util/hashing.h"
#include "util/serial.h"

namespace pier {

size_t TokenDictionary::FindSlot(uint64_t h, std::string_view token) const {
  const size_t mask = table_.size() - 1;
  size_t i = static_cast<size_t>(h) & mask;
  for (;;) {
    const Slot& slot = table_[i];
    if (slot.id_plus_one == 0) return i;
    if (slot.hash == h && spellings_[slot.id_plus_one - 1] == token) return i;
    i = (i + 1) & mask;
  }
}

void TokenDictionary::GrowTable() {
  const size_t new_size = table_.empty() ? 1024 : table_.size() * 2;
  std::vector<Slot> old = std::move(table_);
  table_.assign(new_size, Slot{});
  const size_t mask = new_size - 1;
  for (const Slot& slot : old) {
    if (slot.id_plus_one == 0) continue;
    size_t i = static_cast<size_t>(slot.hash) & mask;
    while (table_[i].id_plus_one != 0) i = (i + 1) & mask;
    table_[i] = slot;
  }
}

TokenId TokenDictionary::Intern(std::string_view token) {
  // Grow at 70% load; spellings_.size() doubles as the occupancy count.
  if (spellings_.size() * 10 >= table_.size() * 7) GrowTable();
  const uint64_t h = HashString(token);
  const size_t i = FindSlot(h, token);
  if (table_[i].id_plus_one != 0) return table_[i].id_plus_one - 1;
  const char* data = spelling_arena_.Append(token.data(), token.size());
  const TokenId id = static_cast<TokenId>(spellings_.size());
  spellings_.emplace_back(data, token.size());
  table_[i] = Slot{h, id + 1};
  return id;
}

TokenId TokenDictionary::Lookup(std::string_view token) const {
  if (table_.empty()) return kInvalidTokenId;
  const Slot& slot = table_[FindSlot(HashString(token), token)];
  return slot.id_plus_one == 0 ? kInvalidTokenId : slot.id_plus_one - 1;
}

std::string_view TokenDictionary::Spelling(TokenId id) const {
  PIER_DCHECK(id < spellings_.size());
  return spellings_[id];
}

void TokenDictionary::Snapshot(std::ostream& out) const {
  serial::WriteU64(out, spellings_.size());
  for (size_t i = 0; i < spellings_.size(); ++i) {
    serial::WriteString(out, spellings_[i]);
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
         spellings_.capacity() * sizeof(std::string_view) +
         table_.capacity() * sizeof(Slot);
}

}  // namespace pier
