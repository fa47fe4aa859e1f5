#include "frontier/sper_sk.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "blocking/block_ghosting.h"
#include "metablocking/weighting.h"
#include "util/serial.h"

namespace pier {

namespace {

// Candidate edges drawn per new profile; a neighbourhood with at most
// this many partner visits is enumerated exactly instead.
constexpr size_t kSampleBudget = 32;
// Random slots probed per tournament insertion and dequeue.
constexpr size_t kProbes = 8;

}  // namespace

SperSk::SperSk(PrioritizerContext ctx, PrioritizerOptions options)
    : ctx_(ctx),
      options_(options),
      rng_(options.frontier_seed),
      scanner_(ctx) {
  frontier_.reserve(
      std::min<size_t>(options_.cmp_index_capacity, size_t{1} << 12));
  if (ctx_.metrics != nullptr) {
    obs::MetricsRegistry& r = *ctx_.metrics;
    samples_accepted_metric_ = r.GetCounter("frontier.samples_accepted");
    samples_rejected_metric_ = r.GetCounter("frontier.samples_rejected");
    exact_profiles_metric_ = r.GetCounter("frontier.exact_profiles");
    evictions_metric_ = r.GetCounter("frontier.evictions");
  }
}

void SperSk::TournamentInsert(const Comparison& c, WorkStats* stats) {
  ++stats->index_ops;
  if (frontier_.size() < options_.cmp_index_capacity) {
    frontier_.push_back(c);
    return;
  }
  // Tournament eviction: probe a few random slots and displace the
  // weakest, but only if the candidate beats it (CompareByWeight is
  // total, so the decision is deterministic given the probes).
  const CompareByWeight less;
  size_t weakest = rng_.UniformInt(0, frontier_.size() - 1);
  for (size_t p = 1; p < kProbes; ++p) {
    const size_t i = rng_.UniformInt(0, frontier_.size() - 1);
    if (less(frontier_[i], frontier_[weakest])) weakest = i;
  }
  if (less(frontier_[weakest], c)) {
    frontier_[weakest] = c;
    obs::CounterAdd(evictions_metric_);
  }
}

void SperSk::SampleProfile(ProfileId id, WorkStats* stats) {
  const BlockCollection& blocks = *ctx_.blocks;
  const ProfileStore& profiles = *ctx_.profiles;
  const EntityProfile& p = profiles.Get(id);
  GhostBlocks(blocks, p, options_.beta, &retained_);
  if (retained_.empty()) return;
  const DatasetKind kind = blocks.kind();
  // Clean-Clean draws partners from the opposite source list only;
  // Dirty ER draws from the whole block (both member lists — loaders
  // may bucket dirty records under either source label).
  const bool cross_only = kind == DatasetKind::kCleanClean;
  const SourceId partner_source = static_cast<SourceId>(1 - p.source);
  const auto partner_count = [&](const BlockView& b) {
    return cross_only ? b.members[partner_source].size() : b.size();
  };
  const auto partner_at = [&](const BlockView& b, size_t k) {
    return cross_only ? b.members[partner_source][k] : b.member(k);
  };

  // Resolve block views once; the exact sweep and the draw loop
  // below index them instead of re-probing the collection. The views
  // stay valid for this whole pass (nothing mutates the collection).
  block_views_.clear();
  size_t total_members = 0;
  for (const TokenId token : retained_) {
    const BlockView b = blocks.block(token);
    total_members += partner_count(b);
    block_views_.push_back(b);
  }

  scratch_.BeginPass(profiles.size());

  if (total_members <= kSampleBudget) {
    // Small neighbourhood: enumerate exactly (no draws, no RNG use)
    // with the same accumulate-then-drain sweep the exact strategies
    // run -- O(1) per block co-occurrence, and the accumulated count
    // IS the CBS weight, so no pairwise token intersection is needed.
    obs::CounterAdd(exact_profiles_metric_);
    for (const BlockView& b : block_views_) {
      const size_t n = partner_count(b);
      for (size_t k = 0; k < n; ++k) {
        // Only older partners (y < id): mirrors the exact strategies'
        // only_older_neighbors rule, so each unordered pair has
        // exactly one increment responsible for generating it.
        const ProfileId y = partner_at(b, k);
        if (y < id) scratch_.Accumulate(y);
      }
    }
    for (const ProfileId y : scratch_.touched()) {
      const Comparison c(id, y, static_cast<double>(scratch_.cbs(y)));
      ++stats->comparisons_generated;
      TournamentInsert(c, stats);
    }
    return;
  }

  // Block-selection distribution, built only on the sampling path:
  // 1/|b| per retained block, so small (more informative) blocks get
  // proportionally more draws.
  block_cdf_.clear();
  double total = 0.0;
  for (const BlockView& b : block_views_) {
    const size_t n = partner_count(b);
    total += n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
    block_cdf_.push_back(total);
  }
  if (total <= 0.0) return;

  uint64_t accepted = 0;
  uint64_t rejected = 0;
  for (size_t draw = 0; draw < kSampleBudget; ++draw) {
    const double u = rng_.UniformDouble() * total;
    const size_t bi = static_cast<size_t>(
        std::lower_bound(block_cdf_.begin(), block_cdf_.end(), u) -
        block_cdf_.begin());
    const BlockView& b = block_views_[std::min(bi, block_views_.size() - 1)];
    const size_t n = partner_count(b);
    if (n == 0) {
      ++rejected;
      continue;
    }
    const ProfileId y = partner_at(b, rng_.UniformInt(0, n - 1));
    // Only older partners, each at most once per pass (see above).
    if (y >= id) {
      ++rejected;
      continue;
    }
    scratch_.Accumulate(y);
    if (scratch_.cbs(y) != 1) {
      ++rejected;  // duplicate draw
      continue;
    }
    // Exact CBS weight for the sampled pair: the budget bounds these
    // intersections to a handful per profile, and the exact weight
    // keeps the emission order comparable with I-PCS.
    const Comparison c(id, y, PairCbsWeight(p, profiles.Get(y)));
    ++stats->comparisons_generated;
    TournamentInsert(c, stats);
    ++accepted;
  }
  obs::CounterAdd(samples_accepted_metric_, accepted);
  obs::CounterAdd(samples_rejected_metric_, rejected);
}

WorkStats SperSk::UpdateCmpIndex(const std::vector<ProfileId>& delta) {
  WorkStats stats;
  for (const ProfileId id : delta) SampleProfile(id, &stats);

  // Idle tick with a drained frontier: fall back to the block scanner
  // so eventual quality matches the exact strategies (the executed
  // filter suppresses re-emissions).
  if (delta.empty() && frontier_.empty()) {
    for (const Comparison& c : scanner_.NextBlock(&stats)) {
      TournamentInsert(c, &stats);
    }
  }
  return stats;
}

bool SperSk::Dequeue(Comparison* out) {
  if (frontier_.empty()) return false;
  const CompareByWeight less;
  size_t best = 0;
  // Small frontiers are scanned exactly (drains best-first); large
  // ones take the best of a probe tournament, which keeps dequeue O(1)
  // while staying heavily biased toward the top of the distribution.
  constexpr size_t kExactScanLimit = 4 * kProbes;
  if (frontier_.size() <= kExactScanLimit) {
    for (size_t i = 1; i < frontier_.size(); ++i) {
      if (less(frontier_[best], frontier_[i])) best = i;
    }
  } else {
    best = rng_.UniformInt(0, frontier_.size() - 1);
    for (size_t p = 1; p < kProbes; ++p) {
      const size_t i = rng_.UniformInt(0, frontier_.size() - 1);
      if (less(frontier_[best], frontier_[i])) best = i;
    }
  }
  *out = frontier_[best];
  frontier_[best] = frontier_.back();
  frontier_.pop_back();
  return true;
}

void SperSk::OnRetract(ProfileId id) {
  // Order-preserving compaction keeps the reservoir layout (hence the
  // future probe sequence) deterministic.
  size_t kept = 0;
  for (size_t i = 0; i < frontier_.size(); ++i) {
    if (frontier_[i].x == id || frontier_[i].y == id) continue;
    frontier_[kept++] = frontier_[i];
  }
  frontier_.resize(kept);
}

void SperSk::Snapshot(std::ostream& out) const {
  // Reservoir verbatim (slot order matters: probes index into it),
  // then the full RNG state so the restored draw sequence continues
  // exactly, then scanner progress.
  serial::WriteVec(out, frontier_, SnapshotComparison);
  uint64_t state[4];
  rng_.SaveState(state);
  for (const uint64_t word : state) serial::WriteU64(out, word);
  scanner_.Snapshot(out);
}

bool SperSk::Restore(std::istream& in) {
  std::vector<Comparison> frontier;
  if (!serial::ReadVec(in, &frontier, RestoreComparison)) return false;
  if (frontier.size() > options_.cmp_index_capacity) return false;
  uint64_t state[4];
  for (uint64_t& word : state) {
    if (!serial::ReadU64(in, &word)) return false;
  }
  if (!scanner_.Restore(in)) return false;
  frontier_ = std::move(frontier);
  rng_.LoadState(state);
  return true;
}

}  // namespace pier
