#include "core/pier_pipeline.h"

#include <cctype>
#include <iterator>
#include <sstream>

#include "core/i_pbs.h"
#include "core/i_pcs.h"
#include "core/i_pes.h"
#include "frontier/fb_pcs.h"
#include "frontier/sper_sk.h"
#include "obs/scoped_timer.h"
#include "persist/snapshot.h"
#include "util/check.h"
#include "util/serial.h"

namespace pier {

namespace {

using PrioritizerFactory = std::unique_ptr<IncrementalPrioritizer> (*)(
    const PrioritizerContext&, const PrioritizerOptions&);

template <typename T>
std::unique_ptr<IncrementalPrioritizer> Make(const PrioritizerContext& ctx,
                                             const PrioritizerOptions& o) {
  return std::make_unique<T>(ctx, o);
}

struct StrategyEntry {
  PierStrategy strategy;
  const char* name;
  PrioritizerFactory make;
};

// The one place a strategy is registered: adding a row makes it
// constructible, nameable, parseable, and part of every AllStrategies()
// suite. Rows are in enum order (checked by Entry).
constexpr StrategyEntry kStrategies[] = {
    {PierStrategy::kIPcs, "I-PCS", &Make<IPcs>},
    {PierStrategy::kIPbs, "I-PBS", &Make<IPbs>},
    {PierStrategy::kIPes, "I-PES", &Make<IPes>},
    {PierStrategy::kSperSk, "SPER-SK", &Make<SperSk>},
    {PierStrategy::kFbPcs, "FB-PCS", &Make<FbPcs>},
};

const StrategyEntry& Entry(PierStrategy strategy) {
  const auto index = static_cast<size_t>(strategy);
  PIER_CHECK(index < std::size(kStrategies));
  PIER_CHECK(kStrategies[index].strategy == strategy);
  return kStrategies[index];
}

std::string ToLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

}  // namespace

const char* ToString(PierStrategy strategy) { return Entry(strategy).name; }

const std::vector<PierStrategy>& AllStrategies() {
  static const std::vector<PierStrategy> all = [] {
    std::vector<PierStrategy> out;
    for (const StrategyEntry& e : kStrategies) out.push_back(e.strategy);
    return out;
  }();
  return all;
}

const char* KnownAlgorithmNames() {
  static const std::string names = [] {
    std::string out;
    for (const StrategyEntry& e : kStrategies) {
      if (!out.empty()) out += ", ";
      out += e.name;
    }
    return out;
  }();
  return names.c_str();
}

bool ParseAlgorithmName(const std::string& name, PierStrategy* out) {
  const std::string lower = ToLower(name);
  for (const StrategyEntry& e : kStrategies) {
    if (lower == ToLower(e.name)) {
      *out = e.strategy;
      return true;
    }
  }
  return false;
}

PierPipeline::PierPipeline(PierOptions options)
    : options_(options),
      blocks_(options.kind, options.blocking),
      tokenizer_(options.tokenizer),
      adaptive_k_(options.adaptive_k) {
  if (options_.mutable_stream && options_.track_clusters) {
    clusters_.EnableRetraction();
  }
  prioritizer_ = Entry(options_.strategy)
                     .make(PrioritizerContext{&blocks_, &profiles_,
                                              options_.metrics},
                           options_.prioritizer);
  // One pair filter per pair path: a strategy whose own filter already
  // keeps its emitted pairs unique (I-PBS's CF) gets no second one.
  if (prioritizer_->UniquePairFilter() == nullptr) {
    executed_.emplace();
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& r = *options_.metrics;
    // Every shard of a sharded pipeline holds every profile id (with
    // its token slice), so shard 0 alone counts calls and profiles;
    // token and block counts are per-shard slices and add up.
    if (options_.token_shard_index == 0) {
      metrics_.profiles_ingested = r.GetCounter("pipeline.profiles_ingested");
      metrics_.increments = r.GetCounter("pipeline.increments");
      metrics_.profiles_deleted = r.GetCounter("pipeline.profiles_deleted");
      metrics_.profiles_updated = r.GetCounter("pipeline.profiles_updated");
    }
    metrics_.tokens_ingested = r.GetCounter("pipeline.tokens_ingested");
    metrics_.block_updates = r.GetCounter("pipeline.block_updates");
    metrics_.ticks = r.GetCounter("pipeline.ticks");
    metrics_.batches = r.GetCounter("pipeline.batches");
    metrics_.comparisons_emitted =
        r.GetCounter("pipeline.comparisons_emitted");
    metrics_.comparisons_suppressed =
        r.GetCounter("pipeline.comparisons_suppressed");
    metrics_.comparisons_retracted =
        r.GetCounter("pipeline.comparisons_retracted");
    metrics_.ingest_ns = r.GetHistogram("pipeline.ingest_ns");
    metrics_.emit_ns = r.GetHistogram("pipeline.emit_ns");
    metrics_.batch_size = r.GetHistogram("pipeline.batch_size");
    metrics_.state_bytes_profiles = r.GetGauge("persist.state_bytes.profiles");
    metrics_.state_bytes_blocks = r.GetGauge("persist.state_bytes.blocks");
    metrics_.state_bytes_dictionary =
        r.GetGauge("persist.state_bytes.dictionary");
    metrics_.state_bytes_filter = r.GetGauge("persist.state_bytes.filter");
    metrics_.state_bytes_clusters = r.GetGauge("persist.state_bytes.clusters");
    adaptive_k_.AttachMetrics(&r);
    if (options_.track_clusters) clusters_.InstrumentWith(&r);
  }
}

PierPipeline::~PierPipeline() = default;

WorkStats PierPipeline::Ingest(std::vector<EntityProfile> profiles) {
  return AddProfiles(std::move(profiles), /*tokenize=*/true,
                     /*correction=*/false);
}

WorkStats PierPipeline::IngestTokenized(std::vector<EntityProfile> profiles) {
  return AddProfiles(std::move(profiles), /*tokenize=*/false,
                     /*correction=*/false);
}

WorkStats PierPipeline::AddProfiles(std::vector<EntityProfile> profiles,
                                    bool tokenize, bool correction) {
  PIER_CHECK(!correction || options_.mutable_stream);
  const obs::ScopedTimer timer(metrics_.ingest_ns);
  WorkStats stats;
  std::vector<ProfileId> delta;
  delta.reserve(profiles.size());
  // Data Reading and Incremental Blocking, one profile at a time (its
  // token ids are still in cache when blocking reads them). All of the
  // increment is blocked before any of its comparisons are generated,
  // so only_older_neighbors covers intra-increment pairs too.
  for (auto& profile : profiles) {
    const ProfileId id = profile.id;
    if (correction) {
      PIER_CHECK(id < profiles_.size());
      if (profiles_.IsLive(id)) RetractProfile(id, &stats);
    }
    if (tokenize) tokenizer_.TokenizeProfile(profile, dictionary_);
    stats.tokens += profile.tokens().size();
    ++stats.profiles;
    delta.push_back(id);
    stats.block_updates += blocks_.AddProfile(profile);
    if (!correction) {
      profiles_.Add(std::move(profile));
      continue;
    }
    profiles_.Replace(std::move(profile));
    // The corrected profile re-enters as a singleton; its cluster
    // re-forms from post-update verdicts over the rescheduled pairs.
    if (options_.track_clusters) clusters_.ReviveAsSingleton(id);
  }
  stats += prioritizer_->UpdateCmpIndex(delta);
  obs::CounterAdd(metrics_.increments);
  obs::CounterAdd(metrics_.block_updates, stats.block_updates);
  if (correction) {
    obs::CounterAdd(metrics_.profiles_updated, stats.profiles);
    return stats;
  }
  // Every ingested profile starts as a singleton cluster; the index
  // grows here (publish-then-release) so queries for new ids are valid
  // the moment Ingest returns.
  if (options_.track_clusters) clusters_.TrackUpTo(profiles_.size());
  obs::CounterAdd(metrics_.profiles_ingested, stats.profiles);
  obs::CounterAdd(metrics_.tokens_ingested, stats.tokens);
  return stats;
}

void PierPipeline::RetractProfile(ProfileId id, WorkStats* stats) {
  // Order matters: the prioritizer reads the profile's tokens through
  // its context, so it retracts before the block collection and the
  // store mutate.
  prioritizer_->OnRetract(id);
  const EntityProfile& p = profiles_.Get(id);
  stats->block_updates += blocks_.RemoveProfile(p);
  stats->tokens += p.tokens().size();
  // Withdraw every executed pair with this endpoint so a corrected
  // profile's comparisons pass the filter again (a strategy with its
  // own unique-pair filter withdrew them in OnRetract).
  if (executed_) stats->index_ops += executed_->Retract(id);
  if (options_.track_clusters) clusters_.RemoveProfile(id);
}

WorkStats PierPipeline::Delete(const std::vector<ProfileId>& ids) {
  PIER_CHECK(options_.mutable_stream);
  const obs::ScopedTimer timer(metrics_.ingest_ns);
  WorkStats stats;
  for (const ProfileId id : ids) {
    PIER_CHECK(id < profiles_.size());
    if (!profiles_.IsLive(id)) continue;  // idempotent
    RetractProfile(id, &stats);
    profiles_.Remove(id);
    ++stats.profiles;
  }
  obs::CounterAdd(metrics_.increments);
  obs::CounterAdd(metrics_.profiles_deleted, stats.profiles);
  obs::CounterAdd(metrics_.block_updates, stats.block_updates);
  return stats;
}

WorkStats PierPipeline::Update(std::vector<EntityProfile> profiles) {
  return AddProfiles(std::move(profiles), /*tokenize=*/true,
                     /*correction=*/true);
}

WorkStats PierPipeline::UpdateTokenized(std::vector<EntityProfile> profiles) {
  return AddProfiles(std::move(profiles), /*tokenize=*/false,
                     /*correction=*/true);
}

WorkStats PierPipeline::Tick() {
  obs::CounterAdd(metrics_.ticks);
  return prioritizer_->UpdateCmpIndex({});
}

std::vector<Comparison> PierPipeline::EmitBatch() {
  return EmitBatch(adaptive_k_.FindK());
}

std::vector<Comparison> PierPipeline::EmitBatch(size_t k, WorkStats* stats) {
  const obs::ScopedTimer timer(metrics_.emit_ns);
  std::vector<Comparison> batch;
  batch.reserve(k);
  Comparison c;
  while (batch.size() < k) {
    if (!prioritizer_->Dequeue(&c)) {
      // Index drained: pull older pairs forward (empty-increment tick)
      // before giving up -- I-PBS schedules its next pending block,
      // I-PCS/I-PES fall back to the block scanner.
      const WorkStats tick_stats = prioritizer_->UpdateCmpIndex({});
      if (stats != nullptr) *stats += tick_stats;
      if (prioritizer_->Empty()) break;  // genuinely exhausted
      continue;
    }
    // Mutable streams: a retraction may race a comparison already
    // sitting in the index (OnRetract purges are best-effort for
    // lightweight prioritizers); this lazy liveness check is the
    // safety net that keeps dead endpoints out of every batch.
    if (options_.mutable_stream &&
        (!profiles_.IsLive(c.x) || !profiles_.IsLive(c.y))) {
      obs::CounterAdd(metrics_.comparisons_retracted);
      continue;
    }
    if (executed_ && executed_->TestAndAdd(c.x, c.y)) {
      obs::CounterAdd(metrics_.comparisons_suppressed);
      continue;
    }
    batch.push_back(c);
  }
  comparisons_emitted_ += batch.size();
  obs::CounterAdd(metrics_.batches);
  obs::CounterAdd(metrics_.comparisons_emitted, batch.size());
  obs::HistogramRecord(metrics_.batch_size, batch.size());
  return batch;
}

void PierPipeline::RecordVerdicts(const std::vector<Comparison>& batch,
                                  const std::vector<MatchVerdict>& verdicts,
                                  double match_seconds) {
  PIER_CHECK(batch.size() == verdicts.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const Comparison& c = batch[i];
    RecordVerdict(c.x, c.y, verdicts[i].is_match);
    if (verdicts[i].is_match && options_.track_clusters) {
      RecordMatch(c.x, c.y);
    }
  }
  ReportBatchCost(batch.size(), match_seconds);
}

namespace {

// The options fingerprint stored in `pier.meta`: every knob that
// shapes serialized state or future behaviour. Written by Snapshot and
// compared byte-for-byte by Restore, so a snapshot can never be loaded
// into a differently-configured pipeline.
void WriteOptionsFingerprint(std::ostream& out, const PierOptions& o) {
  serial::WriteU8(out, static_cast<uint8_t>(o.kind));
  serial::WriteU8(out, static_cast<uint8_t>(o.strategy));
  serial::WriteU64(out, o.blocking.max_block_size);
  serial::WriteF64(out, o.prioritizer.beta);
  serial::WriteU64(out, o.prioritizer.cmp_index_capacity);
  serial::WriteU64(out, o.prioritizer.per_entity_capacity);
  serial::WriteU64(out, o.prioritizer.entity_queue_capacity);
  serial::WriteU64(out, o.prioritizer.low_weight_queue_capacity);
  serial::WriteU8(out, static_cast<uint8_t>(o.prioritizer.scheme));
  serial::WriteU64(out, o.tokenizer.min_token_length);
  serial::WriteU64(out, o.tokenizer.max_token_length);
  serial::WriteU64(out, o.adaptive_k.initial_k);
  serial::WriteU64(out, o.adaptive_k.min_k);
  serial::WriteU64(out, o.adaptive_k.max_k);
  // Shard identity: a shard section can never restore into a pipeline
  // owning a different token slice.
  serial::WriteU32(out, o.token_shard_count);
  serial::WriteU32(out, o.token_shard_index);
  // Mutability selects the cluster index's wire format (its match-edge
  // tail).
  serial::WriteBool(out, o.mutable_stream);
  // The seed shapes SPER-SK's emitted comparison stream; every
  // strategy writes it so the fingerprint has one length.
  serial::WriteU64(out, o.prioritizer.frontier_seed);
}

void SetRestoreError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

void PierPipeline::Snapshot(persist::SnapshotBuilder& builder,
                            const std::string& prefix) const {
  std::ostream& meta = builder.AddSection(prefix + ".meta");
  WriteOptionsFingerprint(meta, options_);
  serial::WriteU64(meta, comparisons_emitted_);

  dictionary_.Snapshot(builder.AddSection(prefix + ".dictionary"));
  profiles_.Snapshot(builder.AddSection(prefix + ".profiles"));
  blocks_.Snapshot(builder.AddSection(prefix + ".blocks"));
  prioritizer_->Snapshot(builder.AddSection(prefix + ".prioritizer"));

  // The fingerprint pins the filter mode, hence its wire format. A
  // strategy with its own unique-pair filter has no executed filter,
  // and its snapshot no `.filter` section.
  if (executed_) executed_->Snapshot(builder.AddSection(prefix + ".filter"));

  adaptive_k_.Snapshot(builder.AddSection(prefix + ".findk"));
  clusters_.Snapshot(builder.AddSection(prefix + ".clusters"));

  obs::GaugeSet(metrics_.state_bytes_clusters,
                static_cast<double>(clusters_.ApproxMemoryBytes()));
  obs::GaugeSet(metrics_.state_bytes_profiles,
                static_cast<double>(profiles_.ApproxMemoryBytes()));
  obs::GaugeSet(metrics_.state_bytes_blocks,
                static_cast<double>(blocks_.ApproxMemoryBytes()));
  obs::GaugeSet(metrics_.state_bytes_dictionary,
                static_cast<double>(dictionary_.ApproxMemoryBytes()));
  obs::GaugeSet(metrics_.state_bytes_filter,
                static_cast<double>(pair_filter().ApproxMemoryBytes()));
}

bool PierPipeline::Restore(const persist::SnapshotReader& reader,
                           std::string* error, const std::string& prefix) {
  if (!profiles_.empty()) {
    SetRestoreError(error, "pipeline restore requires a fresh pipeline");
    return false;
  }
  const auto decode_error = [&](const char* section_name) {
    SetRestoreError(error, "section '" + prefix + "." + section_name +
                               "' failed to decode");
  };

  std::istringstream meta;
  if (!reader.Open(prefix + ".meta", &meta, error)) return false;
  std::ostringstream expected;
  WriteOptionsFingerprint(expected, options_);
  const std::string expected_bytes = std::move(expected).str();
  std::string actual_bytes(expected_bytes.size(), '\0');
  uint64_t comparisons_emitted = 0;
  // The fingerprint has one length for every configuration; the
  // section must end right after the emitted count.
  if (!meta.read(actual_bytes.data(),
                 static_cast<std::streamsize>(actual_bytes.size())) ||
      !serial::ReadU64(meta, &comparisons_emitted) ||
      meta.peek() != std::istringstream::traits_type::eof()) {
    SetRestoreError(error,
                    "section '" + prefix + ".meta' has the wrong length");
    return false;
  }
  if (actual_bytes != expected_bytes) {
    SetRestoreError(error,
                    "snapshot options fingerprint does not match this "
                    "pipeline's configuration (kind/strategy/capacities/"
                    "tokenizer must be identical to the checkpointed run)");
    return false;
  }

  std::istringstream section;
  if (!reader.Open(prefix + ".dictionary", &section, error)) return false;
  if (!dictionary_.Restore(section)) {
    decode_error("dictionary");
    return false;
  }
  if (!reader.Open(prefix + ".profiles", &section, error)) return false;
  if (!profiles_.Restore(section)) {
    decode_error("profiles");
    return false;
  }
  if (!reader.Open(prefix + ".blocks", &section, error)) return false;
  if (!blocks_.Restore(section)) {
    decode_error("blocks");
    return false;
  }
  if (!reader.Open(prefix + ".prioritizer", &section, error)) return false;
  if (!prioritizer_->Restore(section)) {
    decode_error("prioritizer");
    return false;
  }

  // Without an executed filter no `.filter` section is read.
  if (executed_) {
    if (!reader.Open(prefix + ".filter", &section, error)) return false;
    if (!executed_->Restore(section)) {
      decode_error("filter");
      return false;
    }
  }

  if (!reader.Open(prefix + ".findk", &section, error)) return false;
  if (!adaptive_k_.Restore(section)) {
    decode_error("findk");
    return false;
  }

  if (!reader.Open(prefix + ".clusters", &section, error)) return false;
  if (!clusters_.Restore(section)) {
    decode_error("clusters");
    return false;
  }

  comparisons_emitted_ = comparisons_emitted;
  return true;
}

}  // namespace pier
