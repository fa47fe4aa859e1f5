#include "baseline/i_base.h"

#include <sstream>
#include <utility>

#include "blocking/block_ghosting.h"
#include "metablocking/i_wnp.h"
#include "metablocking/weighting.h"
#include "util/serial.h"

namespace pier {

WorkStats IBase::OnIncrement(std::vector<EntityProfile> profiles) {
  WorkStats stats;
  const std::vector<ProfileId> delta =
      IngestToStore(std::move(profiles), &stats);

  pending_.clear();
  cursor_ = 0;
  const WeightingContext ctx{&blocks_, &profiles_, scheme_};
  for (const ProfileId id : delta) {
    const EntityProfile& p = profiles_.Get(id);
    GhostBlocks(blocks_, p, beta_, &retained_);
    // Appended to pending_ and pruned there, one profile at a time.
    const size_t begin = pending_.size();
    AppendWeightedComparisons(ctx, p, retained_, /*only_older_neighbors=*/true,
                              /*visits=*/nullptr, scratch_, &pending_);
    stats.comparisons_generated += pending_.size() - begin;
    IWnpPrune(&pending_, begin);
  }
  return stats;
}

std::vector<Comparison> IBase::NextBatch(WorkStats* stats) {
  (void)stats;
  std::vector<Comparison> out;
  while (out.size() < batch_size_ && cursor_ < pending_.size()) {
    out.push_back(pending_[cursor_++]);
  }
  if (cursor_ >= pending_.size()) {
    pending_.clear();
    cursor_ = 0;
  }
  return out;
}

void IBase::Snapshot(persist::SnapshotBuilder& builder) const {
  SnapshotBase(builder);
  std::ostream& out = builder.AddSection("ibase.state");
  serial::WriteF64(out, beta_);
  serial::WriteU64(out, batch_size_);
  serial::WriteU8(out, static_cast<uint8_t>(scheme_));
  serial::WriteVec(out, pending_, SnapshotComparison);
  serial::WriteU64(out, cursor_);
}

bool IBase::Restore(const persist::SnapshotReader& reader,
                    std::string* error) {
  if (!profiles_.empty()) {
    if (error != nullptr) *error = "restore requires a fresh I-BASE";
    return false;
  }
  if (!RestoreBase(reader, error)) return false;
  std::istringstream in;
  if (!reader.Open("ibase.state", &in, error)) return false;
  double beta = 0.0;
  uint64_t batch_size = 0;
  uint8_t scheme = 0;
  std::vector<Comparison> pending;
  uint64_t cursor = 0;
  if (!serial::ReadF64(in, &beta) || !serial::ReadU64(in, &batch_size) ||
      !serial::ReadU8(in, &scheme) ||
      !serial::ReadVec(in, &pending, RestoreComparison) ||
      !serial::ReadU64(in, &cursor)) {
    if (error != nullptr) *error = "section 'ibase.state' failed to decode";
    return false;
  }
  // Parameter fingerprint: the snapshot must come from an identically
  // configured I-BASE.
  if (beta != beta_ || batch_size != batch_size_ ||
      scheme != static_cast<uint8_t>(scheme_) || cursor > pending.size()) {
    if (error != nullptr) {
      *error = "snapshot parameters do not match this I-BASE configuration";
    }
    return false;
  }
  pending_ = std::move(pending);
  cursor_ = cursor;
  return true;
}

}  // namespace pier
