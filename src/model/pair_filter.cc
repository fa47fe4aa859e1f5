#include "model/pair_filter.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "util/serial.h"

namespace pier {

namespace {
// Every partner list is its own heap block, and the allocator keeps
// one header word in front of each, so the estimate counts it.
constexpr size_t kHeapBlockHeader = sizeof(void*);
}  // namespace

size_t PairFilter::Retract(ProfileId id) {
  if (id >= partners_.size()) return 0;
  // Swapping with an empty vector releases the list's storage too.
  std::vector<ProfileId> taken;
  taken.swap(partners_[id]);
  for (const ProfileId partner : taken) {
    auto& list = partners_[partner];
    auto pos = std::find(list.begin(), list.end(), id);
    if (pos != list.end()) {
      *pos = list.back();
      list.pop_back();
    }
    if (list.empty()) std::vector<ProfileId>().swap(list);
  }
  num_pairs_ -= taken.size();
  return taken.size();
}

size_t PairFilter::ApproxMemoryBytes() const {
  size_t total = partners_.capacity() * sizeof(std::vector<ProfileId>);
  for (const auto& list : partners_) {
    if (list.capacity() > 0) {
      total += list.capacity() * sizeof(ProfileId) + kHeapBlockHeader;
    }
  }
  return total;
}

void PairFilter::Snapshot(std::ostream& out) const {
  uint64_t count = 0;
  for (const auto& list : partners_) count += list.empty() ? 0 : 1;
  serial::WriteU64(out, count);
  for (size_t id = 0; id < partners_.size(); ++id) {
    if (partners_[id].empty()) continue;
    std::vector<ProfileId> list = partners_[id];
    std::sort(list.begin(), list.end());
    serial::WriteU32(out, static_cast<ProfileId>(id));
    serial::WriteVec(out, list, serial::WriteU32);
  }
}

bool PairFilter::Restore(std::istream& in) {
  uint64_t count = 0;
  if (!serial::ReadU64(in, &count)) return false;
  // Decoded in full before the table is sized, so a truncated payload
  // never allocates for the ids it claims. The table covers every id
  // the payload names, partners included, so Take stays in bounds.
  std::vector<std::pair<ProfileId, std::vector<ProfileId>>> entries;
  uint64_t total = 0;
  size_t table_size = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t id = 0;
    std::vector<ProfileId> list;
    if (!serial::ReadU32(in, &id) ||
        !serial::ReadVec(in, &list, serial::ReadU32)) {
      return false;
    }
    // Snapshot writes ids strictly ascending, never an empty list, and
    // each list strictly ascending without the id itself.
    if (list.empty() || (!entries.empty() && id <= entries.back().first)) {
      return false;
    }
    for (size_t k = 0; k < list.size(); ++k) {
      if (list[k] == id || (k > 0 && list[k] <= list[k - 1])) return false;
    }
    total += list.size();
    table_size = std::max<size_t>(table_size, size_t{id} + 1);
    for (const ProfileId partner : list) {
      table_size = std::max<size_t>(table_size, size_t{partner} + 1);
    }
    entries.emplace_back(id, std::move(list));
  }
  // Every pair is recorded under both endpoints: each (id, p) needs
  // its (p, id), found by binary search in p's sorted list.
  if (total % 2 != 0) return false;
  std::vector<std::vector<ProfileId>> partners(table_size);
  for (auto& [id, list] : entries) partners[id] = std::move(list);
  for (ProfileId id = 0; id < partners.size(); ++id) {
    for (const ProfileId p : partners[id]) {
      if (!std::binary_search(partners[p].begin(), partners[p].end(), id)) {
        return false;
      }
    }
  }
  partners_ = std::move(partners);
  num_pairs_ = total / 2;
  return true;
}

}  // namespace pier
