// The emitted-pair contract, tested in the default configuration
// (Bloom pair filters on append-only streams, the exact pair registry
// on mutable ones, block purging on): a pipeline never emits the same
// pair twice unless one of its endpoints was retracted (deleted or
// corrected) in between. I-PBS keeps this contract with its comparison
// filter CF alone -- the pipeline runs no executed filter for it -- so
// the suite covers every strategy on append-only and mutable streams,
// and I-PBS behind the one-shard RealtimePipeline.
//
// The recall half of the contract on mutable streams: every pair
// filter there is exact, so the default configuration emits exactly
// the stream exact_executed_filter does, for every strategy.
//
// Also pins the I-PBS emitted streams. The append-only digest was
// recorded while the pipeline still ran an exact executed filter
// behind CF, so it proves that filter never dropped an I-PBS pair. The
// mutable digest is the stream of an exact CF (recorded with CF built
// exact before every retractable filter became the exact pair
// registry): no pair is lost to a filter false positive.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pier_pipeline.h"
#include "datagen/generators.h"
#include "model/comparison.h"
#include "similarity/matcher.h"
#include "stream/realtime_pipeline.h"
#include "strategy_test_name.h"
#include "util/hashing.h"

namespace pier {
namespace {

constexpr size_t kIncrement = 100;
constexpr size_t kBatch = 64;
// Batches emitted after each increment: the index is left partly full,
// so later increments and retractions meet pending comparisons.
constexpr size_t kBatchesPerIncrement = 6;

// Census at 0.05 scale (`pier_datagen --dataset=census --scale=0.05`).
const Dataset& Census() {
  static const Dataset dataset = [] {
    CensusOptions options;
    options.num_records = 1500;
    return GenerateCensus(options);
  }();
  return dataset;
}

// A correction: the record with its last attribute dropped.
EntityProfile Corrected(const EntityProfile& original) {
  std::vector<Attribute> attributes;
  original.ForEachAttribute([&](std::string_view name, std::string_view value) {
    attributes.push_back(Attribute{std::string(name), std::string(value)});
  });
  if (attributes.size() > 1) attributes.pop_back();
  return EntityProfile(original.id, original.source, std::move(attributes));
}

// The mutation schedule both drivers share: after increment `begin`,
// delete every 20th profile of it and correct the previous increment's
// deletions at odd positions (Update on a tombstoned id).
std::vector<ProfileId> DeletionsOf(size_t begin, size_t end) {
  std::vector<ProfileId> ids;
  for (size_t i = begin + 7; i < end; i += 20) {
    ids.push_back(static_cast<ProfileId>(i));
  }
  return ids;
}

std::vector<EntityProfile> CorrectionsOf(
    const std::vector<ProfileId>& deleted) {
  std::vector<EntityProfile> corrected;
  for (size_t i = 1; i < deleted.size(); i += 2) {
    corrected.push_back(Corrected(Census().profiles[deleted[i]]));
  }
  return corrected;
}

// Observes the emitted stream: `on_pair` for every emitted pair,
// `on_retract` for every id handed to Delete or Update (before the
// call).
struct Observer {
  std::function<void(ProfileId, ProfileId)> on_pair;
  std::function<void(ProfileId)> on_retract;
};

void EmitBatches(PierPipeline& pipeline, size_t batches,
                 const Observer& observer) {
  for (size_t b = 0; b < batches; ++b) {
    const std::vector<Comparison> batch = pipeline.EmitBatch(kBatch);
    if (batch.empty()) return;
    for (const Comparison& c : batch) observer.on_pair(c.x, c.y);
  }
}

// Streams census through `pipeline` in fixed increments, a fixed number
// of batches after each, then drains it. With `mutate`, every increment
// is followed by deletions and corrections.
void RunStream(PierPipeline& pipeline, bool mutate,
               const Observer& observer) {
  const std::vector<EntityProfile>& profiles = Census().profiles;
  std::vector<ProfileId> previous_deletions;
  for (size_t begin = 0; begin < profiles.size(); begin += kIncrement) {
    const size_t end = std::min(begin + kIncrement, profiles.size());
    pipeline.Ingest(std::vector<EntityProfile>(profiles.begin() + begin,
                                               profiles.begin() + end));
    EmitBatches(pipeline, kBatchesPerIncrement, observer);
    if (!mutate) continue;
    const std::vector<ProfileId> deletions = DeletionsOf(begin, end);
    for (const ProfileId id : deletions) observer.on_retract(id);
    pipeline.Delete(deletions);
    std::vector<EntityProfile> corrections = CorrectionsOf(previous_deletions);
    for (const EntityProfile& p : corrections) observer.on_retract(p.id);
    pipeline.Update(std::move(corrections));
    EmitBatches(pipeline, kBatchesPerIncrement, observer);
    previous_deletions = deletions;
  }
  pipeline.NotifyStreamEnd();
  EmitBatches(pipeline, static_cast<size_t>(-1), observer);
}

// The exact set of pairs emitted since their endpoints were last
// retracted; a pair seen twice without a retraction in between is a
// contract violation.
class UniquenessChecker {
 public:
  void OnPair(ProfileId x, ProfileId y) {
    ++pairs_;
    if (!emitted_.insert(PairKey(x, y)).second) {
      ++repeats_;
      if (repeats_ <= 5) ADD_FAILURE() << "pair re-emitted: " << x << "," << y;
    }
  }

  void OnRetract(ProfileId id) {
    for (auto it = emitted_.begin(); it != emitted_.end();) {
      const auto x = static_cast<ProfileId>(*it >> 32);
      const auto y = static_cast<ProfileId>(*it & 0xffffffffu);
      it = (x == id || y == id) ? emitted_.erase(it) : std::next(it);
    }
  }

  Observer observer() {
    return {[this](ProfileId x, ProfileId y) { OnPair(x, y); },
            [this](ProfileId id) { OnRetract(id); }};
  }

  uint64_t pairs() const { return pairs_; }
  uint64_t repeats() const { return repeats_; }

 private:
  std::unordered_set<uint64_t> emitted_;
  uint64_t pairs_ = 0;
  uint64_t repeats_ = 0;
};

class PairUniquenessTest : public ::testing::TestWithParam<PierStrategy> {};

TEST_P(PairUniquenessTest, AppendOnlyStreamNeverRepeatsAPair) {
  PierOptions options;
  options.strategy = GetParam();
  PierPipeline pipeline(options);
  UniquenessChecker checker;
  RunStream(pipeline, /*mutate=*/false, checker.observer());
  EXPECT_GT(checker.pairs(), 1000u);
  EXPECT_EQ(checker.repeats(), 0u);
}

TEST_P(PairUniquenessTest, MutableStreamRepeatsOnlyAfterRetraction) {
  PierOptions options;
  options.strategy = GetParam();
  options.mutable_stream = true;
  PierPipeline pipeline(options);
  UniquenessChecker checker;
  RunStream(pipeline, /*mutate=*/true, checker.observer());
  EXPECT_GT(checker.pairs(), 1000u);
  EXPECT_EQ(checker.repeats(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PairUniquenessTest,
                         ::testing::ValuesIn(AllStrategies()),
                         StrategyTestName);

// Records every pair the realtime worker sends to the matcher.
class RecordingMatcher : public Matcher {
 public:
  explicit RecordingMatcher(const Matcher& inner)
      : Matcher(inner.threshold()), inner_(inner) {}

  double Similarity(const EntityProfile& a,
                    const EntityProfile& b) const override {
    return inner_.Similarity(a, b);
  }
  bool Verdict(const EntityProfile& a, const EntityProfile& b,
               SimilarityScratch* scratch) const override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      pairs_.emplace_back(a.id, b.id);
    }
    return inner_.Verdict(a, b, scratch);
  }
  uint64_t CostUnits(const EntityProfile& a,
                     const EntityProfile& b) const override {
    return inner_.CostUnits(a, b);
  }
  const char* name() const override { return inner_.name(); }

  // Pairs recorded since the previous call.
  std::vector<std::pair<ProfileId, ProfileId>> TakeNew() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(pairs_, {});
  }

 private:
  const Matcher& inner_;
  mutable std::mutex mu_;
  mutable std::vector<std::pair<ProfileId, ProfileId>> pairs_;
};

TEST(RealtimePairUniquenessTest, OneShardIPbsRepeatsOnlyAfterRetraction) {
  PierOptions options;
  options.strategy = PierStrategy::kIPbs;
  options.mutable_stream = true;
  const JaccardMatcher jaccard(0.5);
  const RecordingMatcher matcher(jaccard);
  RealtimePipeline pipeline(options, &matcher, [](ProfileId, ProfileId) {});
  UniquenessChecker checker;
  // Drain before every mutation: the prioritizer is then exhausted, so
  // every recorded pair precedes the retraction that follows it.
  const auto check_new = [&] {
    pipeline.Drain();
    for (const auto& [x, y] : matcher.TakeNew()) checker.OnPair(x, y);
  };

  const std::vector<EntityProfile>& profiles = Census().profiles;
  std::vector<ProfileId> previous_deletions;
  for (size_t begin = 0; begin < profiles.size(); begin += kIncrement) {
    const size_t end = std::min(begin + kIncrement, profiles.size());
    ASSERT_TRUE(pipeline.Ingest(std::vector<EntityProfile>(
        profiles.begin() + begin, profiles.begin() + end)));
    check_new();
    const std::vector<ProfileId> deletions = DeletionsOf(begin, end);
    for (const ProfileId id : deletions) checker.OnRetract(id);
    ASSERT_TRUE(pipeline.Delete(deletions));
    check_new();
    std::vector<EntityProfile> corrections = CorrectionsOf(previous_deletions);
    for (const EntityProfile& p : corrections) checker.OnRetract(p.id);
    ASSERT_TRUE(pipeline.Update(std::move(corrections)));
    check_new();
    previous_deletions = deletions;
  }
  pipeline.NotifyStreamEnd();
  check_new();
  EXPECT_GT(checker.pairs(), 1000u);
  EXPECT_EQ(checker.repeats(), 0u);
}

// Digest of the emitted stream: every pair in emission order, plus a
// marker per retraction so the mutable schedule is part of it.
class StreamDigest {
 public:
  void OnPair(ProfileId x, ProfileId y) {
    Fold(PairKey(x, y));
    ++pairs_;
  }
  void OnRetract(ProfileId id) { Fold(~static_cast<uint64_t>(id)); }

  Observer observer() {
    return {[this](ProfileId x, ProfileId y) { OnPair(x, y); },
            [this](ProfileId id) { OnRetract(id); }};
  }
  uint64_t value() const { return value_; }
  uint64_t pairs() const { return pairs_; }

 private:
  void Fold(uint64_t v) { value_ = Mix64(value_ ^ v); }

  uint64_t value_ = 0;
  uint64_t pairs_ = 0;
};

TEST_P(PairUniquenessTest, MutableDefaultEmitsTheExactFilterStream) {
  const auto digest_of = [](bool exact) {
    PierOptions options;
    options.strategy = GetParam();
    options.mutable_stream = true;
    options.exact_executed_filter = exact;
    PierPipeline pipeline(options);
    StreamDigest digest;
    RunStream(pipeline, /*mutate=*/true, digest.observer());
    return std::make_pair(digest.pairs(), digest.value());
  };
  const auto by_default = digest_of(/*exact=*/false);
  EXPECT_GT(by_default.first, 1000u);
  EXPECT_EQ(by_default, digest_of(/*exact=*/true));
}

TEST(IPbsEmittedStreamGoldenTest, ExactFilterAppendOnly) {
  PierOptions options;
  options.strategy = PierStrategy::kIPbs;
  options.exact_executed_filter = true;
  PierPipeline pipeline(options);
  StreamDigest digest;
  RunStream(pipeline, /*mutate=*/false, digest.observer());
  EXPECT_EQ(digest.pairs(), 204525u);
  EXPECT_EQ(digest.value(), 0xf495f74187c37199ull);
}

TEST(IPbsEmittedStreamGoldenTest, ExactFilterMutable) {
  PierOptions options;
  options.strategy = PierStrategy::kIPbs;
  options.exact_executed_filter = true;
  options.mutable_stream = true;
  PierPipeline pipeline(options);
  StreamDigest digest;
  RunStream(pipeline, /*mutate=*/true, digest.observer());
  EXPECT_EQ(digest.pairs(), 193821u);
  EXPECT_EQ(digest.value(), 0x405d5a7d2208fb4bull);
}

}  // namespace
}  // namespace pier
