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

void PairFilter::Fold() {
  ProfileId hi = 0;
  for (const LoggedPair& pair : log_) hi = std::max({hi, pair.x, pair.y});
  if (hi >= partners_.size()) partners_.resize(size_t{hi} + 1);
  for (const LoggedPair& pair : log_) {
    partners_[pair.x].push_back(pair.y);
    partners_[pair.y].push_back(pair.x);
  }
  num_pairs_ += log_.size();
  // Released, not cleared: on an append-only stream the log folds
  // once, when the pipeline stops calling Record.
  std::vector<LoggedPair>().swap(log_);
}

size_t PairFilter::Retract(ProfileId id) {
  if (!log_.empty()) Fold();
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
  return total + log_.capacity() * sizeof(LoggedPair);
}

void PairFilter::Snapshot(std::ostream& out) const {
  // Reads through the pending log: its pairs under both endpoints,
  // sorted by id, join each id's list as Fold would add them.
  std::vector<std::pair<ProfileId, ProfileId>> pending;
  pending.reserve(2 * log_.size());
  for (const LoggedPair& pair : log_) {
    pending.emplace_back(pair.x, pair.y);
    pending.emplace_back(pair.y, pair.x);
  }
  std::sort(pending.begin(), pending.end());
  const size_t table =
      std::max<size_t>(partners_.size(),
                       pending.empty() ? 0 : size_t{pending.back().first} + 1);
  const auto has_partners = [&](size_t id) {
    return id < partners_.size() && !partners_[id].empty();
  };

  uint64_t count = 0;
  auto next = pending.begin();
  for (size_t id = 0; id < table; ++id) {
    const bool logged = next != pending.end() && next->first == id;
    while (next != pending.end() && next->first == id) ++next;
    count += (has_partners(id) || logged) ? 1 : 0;
  }
  serial::WriteU64(out, count);
  next = pending.begin();
  std::vector<ProfileId> list;
  for (size_t id = 0; id < table; ++id) {
    list.clear();
    if (has_partners(id)) list = partners_[id];
    for (; next != pending.end() && next->first == id; ++next) {
      list.push_back(next->second);
    }
    if (list.empty()) continue;
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
  log_.clear();
  return true;
}

}  // namespace pier
