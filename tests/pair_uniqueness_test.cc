// The emitted-pair contract, tested in the default configuration (the
// exact pair registry as every pair filter, block purging on): a
// pipeline never emits the same pair twice unless one of its endpoints
// was retracted (deleted or corrected) in between. I-PBS keeps this
// contract with its comparison filter CF alone -- the pipeline runs no
// executed filter for it -- so the suite covers every strategy on
// append-only and mutable streams, and I-PBS behind the one-shard
// RealtimePipeline.
//
// The recall half of the contract: every pair filter is exact, so the
// default configuration emits exactly the stream of an exact filter,
// for every strategy, and `pipeline.comparisons_suppressed` counts
// real duplicates only. The goldens below were recorded from the
// implementation that still had a Bloom mode, run with its exact
// filters (the exact executed filter, and for I-PBS an exact CF):
// none of them can come from the filter they check.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/i_pcs.h"
#include "core/i_pes.h"
#include "core/pier_pipeline.h"
#include "datagen/generators.h"
#include "obs/metrics.h"
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

// A profile corrected twice in one Update call is scheduled once, for
// its last version, so no pair of it is emitted twice.
TEST_P(PairUniquenessTest, ProfileCorrectedTwiceInOneCallRepeatsNoPair) {
  PierOptions options;
  options.strategy = GetParam();
  options.mutable_stream = true;
  PierPipeline pipeline(options);
  UniquenessChecker checker;
  const Observer observer = checker.observer();
  const std::vector<EntityProfile>& profiles = Census().profiles;
  pipeline.Ingest(std::vector<EntityProfile>(profiles.begin(),
                                             profiles.begin() + 400));
  EmitBatches(pipeline, 2, observer);
  for (const ProfileId id : {ProfileId{17}, ProfileId{250}}) {
    observer.on_retract(id);
    pipeline.Update({Corrected(profiles[id]), Corrected(profiles[id])});
  }
  EmitBatches(pipeline, static_cast<size_t>(-1), observer);
  EXPECT_GT(checker.pairs(), 1000u);
  EXPECT_EQ(checker.repeats(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PairUniquenessTest,
                         ::testing::ValuesIn(AllStrategies()),
                         StrategyTestName);

// A standalone prioritizer of a strategy that opts into
// EmitsOnlyNewPairs, over the given pipeline's blocks and profiles.
std::unique_ptr<IncrementalPrioritizer> MakeShadow(
    PierStrategy strategy, const PierPipeline& pipeline,
    const PrioritizerOptions& options) {
  const PrioritizerContext ctx{&pipeline.blocks(), &pipeline.profiles(),
                               nullptr};
  switch (strategy) {
    case PierStrategy::kIPcs:
      return std::make_unique<IPcs>(ctx, options);
    case PierStrategy::kIPes:
      return std::make_unique<IPes>(ctx, options);
    default:
      return nullptr;
  }
}

std::vector<ProfileId> IdsOf(const std::vector<EntityProfile>& profiles) {
  std::vector<ProfileId> ids;
  for (const EntityProfile& p : profiles) ids.push_back(p.id);
  return ids;
}

// The premise of EmitsOnlyNewPairs, checked on the strategy itself:
// while the hook holds, the raw Dequeue stream, with no executed filter
// behind it, repeats no pair unless an endpoint was retracted in
// between. A shadow prioritizer reads a pipeline's blocks and profiles
// and gets the same increments and retractions; after each, it is
// dequeued as RunStream dequeues a pipeline, but without the idle ticks
// that would start its block scanner.
TEST(EmitsOnlyNewPairsTest, RawStreamRepeatsNoPairWhileTheHookHolds) {
  std::vector<PierStrategy> opted_in;
  for (const PierStrategy strategy : AllStrategies()) {
    PierOptions probe;
    probe.strategy = strategy;
    if (!PierPipeline(probe).prioritizer().EmitsOnlyNewPairs()) continue;
    opted_in.push_back(strategy);
    for (const bool mutate : {false, true}) {
      SCOPED_TRACE(std::string(ToString(strategy)) +
                   (mutate ? " mutable" : " append-only"));
      PierOptions options;
      options.strategy = strategy;
      options.mutable_stream = mutate;
      PierPipeline pipeline(options);
      std::unique_ptr<IncrementalPrioritizer> shadow =
          MakeShadow(strategy, pipeline, options.prioritizer);
      ASSERT_NE(shadow, nullptr) << "no shadow for a strategy that opts in";
      UniquenessChecker checker;
      // No idle ticks: the block scanner stays off until the end.
      const auto dequeue = [&](size_t n) {
        Comparison c;
        for (size_t i = 0; i < n && shadow->Dequeue(&c); ++i) {
          checker.OnPair(c.x, c.y);
        }
        ASSERT_TRUE(shadow->EmitsOnlyNewPairs());
      };
      // OnRetract reads the profile's tokens, so it precedes the
      // pipeline's own retraction.
      const auto retract = [&](ProfileId id) {
        checker.OnRetract(id);
        shadow->OnRetract(id);
      };

      const std::vector<EntityProfile>& profiles = Census().profiles;
      std::vector<ProfileId> previous_deletions;
      for (size_t begin = 0; begin < profiles.size(); begin += kIncrement) {
        const size_t end = std::min(begin + kIncrement, profiles.size());
        std::vector<EntityProfile> increment(profiles.begin() + begin,
                                             profiles.begin() + end);
        const std::vector<ProfileId> ids = IdsOf(increment);
        pipeline.Ingest(std::move(increment));
        (void)shadow->UpdateCmpIndex(ids);
        dequeue(kBatchesPerIncrement * kBatch);
        if (!mutate) continue;
        const std::vector<ProfileId> deletions = DeletionsOf(begin, end);
        for (const ProfileId id : deletions) retract(id);
        pipeline.Delete(deletions);
        std::vector<EntityProfile> corrections =
            CorrectionsOf(previous_deletions);
        const std::vector<ProfileId> corrected = IdsOf(corrections);
        for (const ProfileId id : corrected) {
          if (pipeline.profiles().IsLive(id)) retract(id);
        }
        pipeline.Update(std::move(corrections));
        // An empty delta would be an idle tick.
        if (!corrected.empty()) (void)shadow->UpdateCmpIndex(corrected);
        dequeue(kBatchesPerIncrement * kBatch);
        previous_deletions = deletions;
      }
      dequeue(static_cast<size_t>(-1));
      // The first idle tick on the drained index starts the scanner.
      (void)shadow->UpdateCmpIndex({});
      EXPECT_FALSE(shadow->EmitsOnlyNewPairs());
      EXPECT_GT(checker.pairs(), 5000u);
      EXPECT_EQ(checker.repeats(), 0u);
    }
  }
  EXPECT_EQ(opted_in,
            (std::vector<PierStrategy>{PierStrategy::kIPcs,
                                       PierStrategy::kIPes}));
}

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

// The default stream of every strategy, append-only and mutable:
// emitted pairs and the stream digest, and the append-only stream's
// suppressed duplicates.
struct StreamGolden {
  PierStrategy strategy;
  uint64_t append_only_pairs;
  uint64_t append_only_digest;
  uint64_t append_only_duplicates;
  uint64_t mutable_pairs;
  uint64_t mutable_digest;
};

const StreamGolden& GoldenOf(PierStrategy strategy) {
  static const StreamGolden kGoldens[] = {
      {PierStrategy::kIPcs, 205989, 0x11806627d79a65d7ull, 27517, 204288,
       0x531de0ab3d87160cull},
      {PierStrategy::kIPbs, 205989, 0x37e8b3300064d52aull, 0, 193821,
       0x405d5a7d2208fb4bull},
      {PierStrategy::kIPes, 205989, 0x530d74baf1cc904dull, 27517, 204555,
       0x42faba38560d4037ull},
      {PierStrategy::kSperSk, 205989, 0x0baa3872c542fc52ull, 29348, 204286,
       0x171074c4582eb555ull},
      {PierStrategy::kFbPcs, 205989, 0x11806627d79a65d7ull, 27517, 204288,
       0x531de0ab3d87160cull},
  };
  for (const StreamGolden& golden : kGoldens) {
    if (golden.strategy == strategy) return golden;
  }
  ADD_FAILURE() << "no golden for " << ToString(strategy);
  return kGoldens[0];
}

std::pair<uint64_t, uint64_t> DefaultStreamDigest(PierStrategy strategy,
                                                  bool mutate) {
  PierOptions options;
  options.strategy = strategy;
  options.mutable_stream = mutate;
  PierPipeline pipeline(options);
  StreamDigest digest;
  RunStream(pipeline, mutate, digest.observer());
  return {digest.pairs(), digest.value()};
}

TEST_P(PairUniquenessTest, AppendOnlyDefaultEmitsTheExactFilterStream) {
  const StreamGolden& golden = GoldenOf(GetParam());
  EXPECT_EQ(DefaultStreamDigest(GetParam(), /*mutate=*/false),
            std::make_pair(golden.append_only_pairs,
                           golden.append_only_digest));
}

TEST_P(PairUniquenessTest, MutableDefaultEmitsTheExactFilterStream) {
  const StreamGolden& golden = GoldenOf(GetParam());
  EXPECT_EQ(DefaultStreamDigest(GetParam(), /*mutate=*/true),
            std::make_pair(golden.mutable_pairs, golden.mutable_digest));
}

// Every filter is exact, so `pipeline.comparisons_suppressed` counts
// exactly the pairs a strategy emitted again on the append-only
// stream: every stream above emits 205,989 distinct pairs, and the
// duplicates are the re-emissions the executed filter dropped
// on top of them (I-PBS emits none; it runs no executed filter).
TEST_P(PairUniquenessTest, AppendOnlyDuplicatesPerStrategy) {
#ifdef PIER_OBS_DISABLED
  GTEST_SKIP() << "metrics are compiled out";
#endif
  obs::MetricsRegistry registry;
  PierOptions options;
  options.strategy = GetParam();
  options.metrics = &registry;
  PierPipeline pipeline(options);
  StreamDigest digest;
  RunStream(pipeline, /*mutate=*/false, digest.observer());
  EXPECT_EQ(registry.GetCounter("pipeline.comparisons_suppressed")->Value(),
            GoldenOf(GetParam()).append_only_duplicates);
}

// The I-PBS streams, CF alone. The append-only stream emits 205,989
// pairs, as many as every other strategy; a Bloom CF dropped 1,464 of
// them as false positives.
TEST(IPbsEmittedStreamGoldenTest, ExactFilterAppendOnly) {
  PierOptions options;
  options.strategy = PierStrategy::kIPbs;
  PierPipeline pipeline(options);
  StreamDigest digest;
  RunStream(pipeline, /*mutate=*/false, digest.observer());
  EXPECT_EQ(digest.pairs(), 205989u);
  EXPECT_EQ(digest.value(), 0x37e8b3300064d52aull);
}

TEST(IPbsEmittedStreamGoldenTest, ExactFilterMutable) {
  PierOptions options;
  options.strategy = PierStrategy::kIPbs;
  options.mutable_stream = true;
  PierPipeline pipeline(options);
  StreamDigest digest;
  RunStream(pipeline, /*mutate=*/true, digest.observer());
  EXPECT_EQ(digest.pairs(), 193821u);
  EXPECT_EQ(digest.value(), 0x405d5a7d2208fb4bull);
}

}  // namespace
}  // namespace pier
