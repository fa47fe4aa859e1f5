#include "core/i_pes.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "blocking/block_ghosting.h"
#include "metablocking/i_wnp.h"
#include "util/serial.h"

namespace pier {

IPes::IPes(PrioritizerContext ctx, PrioritizerOptions options)
    : ctx_(ctx),
      options_(options),
      entity_queue_(options.entity_queue_capacity),
      low_queue_(options.low_weight_queue_capacity),
      scanner_(ctx) {}

WorkStats IPes::UpdateCmpIndex(const std::vector<ProfileId>& delta) {
  WorkStats stats;
  const WeightingContext wctx{ctx_.blocks, ctx_.profiles, options_.scheme};

  // Algorithm 2 lines 1-11 (shared with I-PCS): ghosting, candidate
  // generation and I-WNP cleaning, each profile's candidates appended
  // to one reused buffer and pruned there; block-scanner fallback on
  // idle ticks.
  candidates_.clear();
  for (const ProfileId id : delta) {
    const EntityProfile& p = ctx_.profiles->Get(id);
    GhostBlocks(*ctx_.blocks, p, options_.beta, &retained_);
    const size_t begin = candidates_.size();
    AppendWeightedComparisons(wctx, p, retained_, /*only_older_neighbors=*/true,
                              /*visits=*/nullptr, scratch_, &candidates_);
    stats.comparisons_generated += candidates_.size() - begin;
    IWnpPrune(&candidates_, begin);
  }
  // Algorithm 4, lines 1-14.
  for (const Comparison& c : candidates_) Insert(c, &stats);
  if (delta.empty() && Empty()) {
    for (const Comparison& c : scanner_.NextBlock(&stats)) Insert(c, &stats);
  }
  return stats;
}

IPes::EntityEntry* IPes::FindEntity(ProfileId e) {
  if (e >= entity_pos_.size() || entity_pos_[e] == kNoEntry) return nullptr;
  return &tracked_[entity_pos_[e]];
}

const IPes::EntityEntry* IPes::FindEntity(ProfileId e) const {
  if (e >= entity_pos_.size() || entity_pos_[e] == kNoEntry) return nullptr;
  return &tracked_[entity_pos_[e]];
}

IPes::EntityEntry& IPes::EnsureEntity(ProfileId e) {
  if (e >= entity_pos_.size()) entity_pos_.resize(e + 1, kNoEntry);
  if (entity_pos_[e] != kNoEntry) return tracked_[entity_pos_[e]];
  entity_pos_[e] = static_cast<uint32_t>(tracked_.size());
  tracked_ids_.push_back(e);
  tracked_.emplace_back(options_.per_entity_capacity);
  return tracked_.back();
}

void IPes::EraseEntity(ProfileId e) {
  const uint32_t pos = entity_pos_[e];
  PIER_DCHECK(pos != kNoEntry);
  const uint32_t last = static_cast<uint32_t>(tracked_.size()) - 1;
  if (pos != last) {
    tracked_[pos] = std::move(tracked_[last]);
    tracked_ids_[pos] = tracked_ids_[last];
    entity_pos_[tracked_ids_[pos]] = pos;
  }
  tracked_.pop_back();
  tracked_ids_.pop_back();
  entity_pos_[e] = kNoEntry;
}

void IPes::PushToEntity(ProfileId e, const Comparison& c) {
  PushToEntry(EnsureEntity(e), c);
}

void IPes::PushToEntry(EntityEntry& entry, const Comparison& c) {
  const bool was_empty = entry.pq.empty();
  if (entry.pq.PushBounded(c)) {
    entry.inserted_total += c.weight;
    ++entry.inserted_count;
    if (was_empty) ++nonempty_entities_;
  }
}

void IPes::Insert(const Comparison& c, WorkStats* stats) {
  const double w = c.weight;
  // Line 3: global running mean.
  total_ += w;
  ++count_;
  ++stats->index_ops;

  // Lines 4-9: a comparison improving either endpoint's best enters
  // that endpoint's queue and re-ranks the entity. Each endpoint's
  // entry is resolved once and reused (this runs per comparison, so
  // redundant index probes were a measurable share of ingest).
  EntityEntry* ex = FindEntity(c.x);
  if (ex == nullptr || ex->pq.empty() || ex->pq.PeekMax().weight < w) {
    PushToEntry(ex != nullptr ? *ex : EnsureEntity(c.x), c);
    entity_queue_.Push(EntityRef{c.x, w});
    return;
  }
  EntityEntry* ey = FindEntity(c.y);
  if (ey == nullptr || ey->pq.empty() || ey->pq.PeekMax().weight < w) {
    PushToEntry(ey != nullptr ? *ey : EnsureEntity(c.y), c);
    entity_queue_.Push(EntityRef{c.y, w});
    return;
  }

  // Lines 10-12: double pruning -- above the global mean, insert into
  // the endpoint with the smaller queue, but only if it also beats
  // that entity's own inserted-weight mean. (Both endpoints are
  // tracked and nonempty here, or an earlier branch would have fired.)
  if (w > total_ / static_cast<double>(count_)) {
    EntityEntry& entry = ex->pq.size() <= ey->pq.size() ? *ex : *ey;
    const bool beats_entity_mean =
        entry.inserted_count == 0 ||
        w > entry.inserted_total / static_cast<double>(entry.inserted_count);
    if (beats_entity_mean) {
      PushToEntry(entry, c);
      return;
    }
    // Pruned by the per-entity mean: demote to PQ rather than dropping
    // outright, preserving eventual quality.
    low_queue_.PushBounded(c);
    return;
  }

  // Lines 13-14: below the global mean -> bounded low-weight queue.
  low_queue_.PushBounded(c);
}

void IPes::RefillEntityQueue() {
  // Iteration order differs from the old hash map, but the EntityQueue
  // orders refs by (weight, id) -- a strict total order -- so its
  // content (top-K of the refs) and every subsequent dequeue are
  // insertion-order independent.
  ++num_refills_;
  std::vector<EntityRef> refs;
  refs.reserve(tracked_.size());
  for (size_t i = 0; i < tracked_.size();) {
    if (tracked_[i].pq.empty()) {
      // Drained entity: drop its entry to bound memory on long
      // streams. (Its per-entity mean resets if it reappears.)
      // EraseEntity swap-fills slot i; revisit it.
      EraseEntity(tracked_ids_[i]);
      continue;
    }
    refs.push_back(EntityRef{tracked_ids_[i], tracked_[i].pq.PeekMax().weight});
    ++i;
  }
  entity_queue_.Assign(std::move(refs));
}

bool IPes::Dequeue(Comparison* out) {
  for (;;) {
    if (entity_queue_.empty()) {
      if (nonempty_entities_ > 0) RefillEntityQueue();
      if (entity_queue_.empty()) break;
    }
    const EntityRef ref = entity_queue_.PopMax();
    EntityEntry* entry = FindEntity(ref.id);
    if (entry == nullptr || entry->pq.empty()) continue;  // stale
    *out = entry->pq.PopMax();
    if (entry->pq.empty()) {
      --nonempty_entities_;
      // Eagerly drop the drained entry so the entity index stays
      // bounded on long streams (its per-entity mean restarts if the
      // entity reappears; see also RefillEntityQueue).
      EraseEntity(ref.id);
    }
    return true;
  }
  // "If the EntityQueue is smaller than K the missing comparisons are
  // taken from PQ."
  if (!low_queue_.empty()) {
    *out = low_queue_.PopMax();
    return true;
  }
  return false;
}

void IPes::OnRetract(ProfileId id) {
  // The retracted entity's own queue.
  if (EntityEntry* own = FindEntity(id); own != nullptr) {
    if (!own->pq.empty()) --nonempty_entities_;
    EraseEntity(id);
  }

  // Other entities may hold comparisons whose far endpoint is `id`:
  // compact any touched per-entity queue in place (the dequeue order of
  // the rest cannot change, CompareByWeight being a strict total
  // order). Entities drained by the purge are dropped exactly like
  // Dequeue drops them; stale EntityQueue refs to either are skipped at
  // dequeue time.
  const auto touches = [id](const Comparison& c) {
    return c.x == id || c.y == id;
  };
  for (size_t i = 0; i < tracked_.size();) {
    const bool was_nonempty = !tracked_[i].pq.empty();
    tracked_[i].pq.EraseIf(touches);
    if (tracked_[i].pq.empty()) {
      if (was_nonempty) --nonempty_entities_;
      EraseEntity(tracked_ids_[i]);  // swap-fills slot i; revisit it
    } else {
      ++i;
    }
  }

  // The low-weight overflow queue. Total/Count stay as-is: they are
  // running means over everything ever inserted, not live state.
  low_queue_.EraseIf(touches);
}

void IPes::Snapshot(std::ostream& out) const {
  // Entity entries sorted by id for canonical bytes; each per-entity
  // queue's heap vector is stored verbatim. The EntityQueue ranks by
  // (weight, id) under a strict total order, so sparse-set iteration
  // order never influences dequeue results -- sorting here is purely
  // for byte-identical re-snapshots. The EntityQueue is written in pop
  // order, trimmed to its capacity.
  std::vector<ProfileId> ids = tracked_ids_;
  std::sort(ids.begin(), ids.end());
  serial::WriteU64(out, ids.size());
  for (const ProfileId id : ids) {
    const EntityEntry& entry = *FindEntity(id);
    serial::WriteU32(out, id);
    serial::WriteF64(out, entry.inserted_total);
    serial::WriteU64(out, entry.inserted_count);
    serial::WriteVec(out, entry.pq.data(), SnapshotComparison);
  }

  const auto write_ref = [](std::ostream& o, const EntityRef& r) {
    serial::WriteU32(o, r.id);
    serial::WriteF64(o, r.weight);
  };
  serial::WriteVec(out, entity_queue_.Sorted(), write_ref);
  serial::WriteVec(out, low_queue_.data(), SnapshotComparison);

  serial::WriteF64(out, total_);
  serial::WriteU64(out, count_);
  serial::WriteU64(out, nonempty_entities_);
  serial::WriteU64(out, num_refills_);
  scanner_.Snapshot(out);
}

bool IPes::Restore(std::istream& in) {
  uint64_t num_entities = 0;
  if (!serial::ReadU64(in, &num_entities)) return false;
  std::vector<uint32_t> entity_pos;
  std::vector<ProfileId> tracked_ids;
  std::vector<EntityEntry> tracked;
  tracked_ids.reserve(std::min<uint64_t>(num_entities, 1u << 20));
  tracked.reserve(std::min<uint64_t>(num_entities, 1u << 20));
  for (uint64_t i = 0; i < num_entities; ++i) {
    uint32_t id = 0;
    double inserted_total = 0.0;
    uint64_t inserted_count = 0;
    std::vector<Comparison> pq_data;
    if (!serial::ReadU32(in, &id) || !serial::ReadF64(in, &inserted_total) ||
        !serial::ReadU64(in, &inserted_count) ||
        !serial::ReadVec(in, &pq_data, RestoreComparison)) {
      return false;
    }
    if (id == kInvalidProfileId) return false;
    if (id >= entity_pos.size()) entity_pos.resize(id + 1, kNoEntry);
    if (entity_pos[id] != kNoEntry) return false;  // duplicate entity
    entity_pos[id] = static_cast<uint32_t>(tracked.size());
    tracked_ids.push_back(id);
    tracked.emplace_back(options_.per_entity_capacity);
    tracked.back().inserted_total = inserted_total;
    tracked.back().inserted_count = inserted_count;
    // Drained entities are erased the moment they drain.
    if (pq_data.empty()) return false;
    if (!tracked.back().pq.RestoreData(std::move(pq_data))) return false;
  }

  const auto read_ref = [](std::istream& s, EntityRef* r) {
    return serial::ReadU32(s, &r->id) && serial::ReadF64(s, &r->weight);
  };
  std::vector<EntityRef> eq_data;
  std::vector<Comparison> lq_data;
  double total = 0.0;
  uint64_t count = 0;
  uint64_t nonempty = 0;
  uint64_t refills = 0;
  if (!serial::ReadVec(in, &eq_data, read_ref) ||
      !serial::ReadVec(in, &lq_data, RestoreComparison) ||
      !serial::ReadF64(in, &total) || !serial::ReadU64(in, &count) ||
      !serial::ReadU64(in, &nonempty) || !serial::ReadU64(in, &refills)) {
    return false;
  }
  // Every tracked entity holds comparisons, so the count Empty() reads
  // is the number of entries; a larger one would make Dequeue spin.
  if (nonempty != tracked.size()) return false;
  if (!entity_queue_.RestoreSorted(std::move(eq_data))) return false;
  if (!low_queue_.RestoreData(std::move(lq_data))) return false;
  if (!scanner_.Restore(in)) return false;

  entity_pos_ = std::move(entity_pos);
  tracked_ids_ = std::move(tracked_ids);
  tracked_ = std::move(tracked);
  total_ = total;
  count_ = count;
  nonempty_entities_ = nonempty;
  num_refills_ = refills;
  return true;
}

}  // namespace pier
