// Recovery-equivalence golden tests (the checkpoint subsystem's
// correctness contract): kill a run after any increment, restore from
// the durable snapshot, continue -- the verdict stream, the emitted
// comparisons, and the final progressive curve must be identical to an
// uninterrupted run. Exercised across all five PIER prioritizers
// (including the stochastic SPER-SK, whose RNG state rides in the
// snapshot) and both snapshot-capable baselines, resuming from every
// checkpoint
// (including the pre-stream seed and the final increment), plus
// rejection of tampered and mismatched snapshots.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/i_base.h"
#include "baseline/pbs.h"
#include "datagen/generators.h"
#include "persist/snapshot.h"
#include "similarity/matcher.h"
#include "stream/pier_adapter.h"
#include "stream/stream_simulator.h"

namespace pier {
namespace {

namespace fs = std::filesystem;

Dataset TinyDataset() {
  BibliographicOptions options;
  options.source0_count = 120;
  options.source1_count = 100;
  options.seed = 11;
  return GenerateBibliographic(options);
}

using AlgorithmFactory = std::function<std::unique_ptr<ErAlgorithm>(
    const Dataset&)>;

struct AlgorithmCase {
  const char* label;
  AlgorithmFactory make;
};

std::unique_ptr<ErAlgorithm> MakePier(const Dataset& d,
                                      PierStrategy strategy) {
  PierOptions options;
  options.kind = d.kind;
  options.strategy = strategy;
  return std::make_unique<PierAdapter>(options);
}

std::vector<AlgorithmCase> AllCases() {
  return {
      {"I-PCS",
       [](const Dataset& d) { return MakePier(d, PierStrategy::kIPcs); }},
      {"I-PBS",
       [](const Dataset& d) { return MakePier(d, PierStrategy::kIPbs); }},
      {"I-PES",
       [](const Dataset& d) { return MakePier(d, PierStrategy::kIPes); }},
      {"SPER-SK",
       [](const Dataset& d) { return MakePier(d, PierStrategy::kSperSk); }},
      {"FB-PCS",
       [](const Dataset& d) { return MakePier(d, PierStrategy::kFbPcs); }},
      {"PBS",
       [](const Dataset& d) {
         return std::make_unique<Pbs>(d.kind, BlockingOptions());
       }},
      {"I-BASE",
       [](const Dataset& d) {
         return std::make_unique<IBase>(d.kind, BlockingOptions());
       }},
  };
}

// Recovery equivalence demands the *modeled* cost meter: measured
// wall-clock timings are inherently noisy across runs.
SimulatorOptions BaseOptions(double rate) {
  SimulatorOptions options;
  options.num_increments = 10;
  options.increments_per_second = rate;
  options.cost_mode = CostMeter::Mode::kModeled;
  return options;
}

void ExpectSameResult(const RunResult& expected, const RunResult& actual,
                      const std::string& context) {
  EXPECT_EQ(expected.comparisons_executed, actual.comparisons_executed)
      << context;
  EXPECT_EQ(expected.matches_found, actual.matches_found) << context;
  EXPECT_EQ(expected.matcher_positives, actual.matcher_positives) << context;
  EXPECT_EQ(expected.matcher_true_positives, actual.matcher_true_positives)
      << context;
  EXPECT_EQ(expected.stalled_ticks, actual.stalled_ticks) << context;
  EXPECT_EQ(expected.stall_aborted, actual.stall_aborted) << context;
  EXPECT_EQ(expected.stream_consumed_at, actual.stream_consumed_at)
      << context;
  EXPECT_EQ(expected.end_time, actual.end_time) << context;
  ASSERT_EQ(expected.curve.points().size(), actual.curve.points().size())
      << context;
  for (size_t i = 0; i < expected.curve.points().size(); ++i) {
    const CurvePoint& e = expected.curve.points()[i];
    const CurvePoint& a = actual.curve.points()[i];
    EXPECT_EQ(e.time, a.time) << context << " point " << i;
    EXPECT_EQ(e.comparisons, a.comparisons) << context << " point " << i;
    EXPECT_EQ(e.matches_found, a.matches_found) << context << " point " << i;
  }
  // The cluster-level curve must survive checkpoint/resume bit-for-bit
  // too: the recall tracker restores from its canonical partition.
  EXPECT_EQ(expected.total_cluster_pairs, actual.total_cluster_pairs)
      << context;
  ASSERT_EQ(expected.cluster_curve.points().size(),
            actual.cluster_curve.points().size())
      << context;
  for (size_t i = 0; i < expected.cluster_curve.points().size(); ++i) {
    const CurvePoint& e = expected.cluster_curve.points()[i];
    const CurvePoint& a = actual.cluster_curve.points()[i];
    EXPECT_EQ(e.time, a.time) << context << " cluster point " << i;
    EXPECT_EQ(e.comparisons, a.comparisons)
        << context << " cluster point " << i;
    EXPECT_EQ(e.matches_found, a.matches_found)
        << context << " cluster point " << i;
  }
}

std::vector<std::string> CheckpointFiles(const fs::path& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

class RecoveryEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pier_recovery_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // For one algorithm: run uninterrupted (no checkpoints), then run
  // with checkpoints kept at every multiple of 3 (plus seed 0 and the
  // final increment), then resume from every checkpoint and demand the
  // identical result.
  void CheckAlgorithm(const AlgorithmCase& algo, const Dataset& dataset,
                      double rate) {
    const fs::path dir = dir_ / algo.label;
    SimulatorOptions plain = BaseOptions(rate);
    const StreamSimulator simulator(&dataset, plain);
    const auto matcher = MakeMatcher("JS", 0.5);

    auto baseline_algo = algo.make(dataset);
    const RunResult baseline = simulator.Run(*baseline_algo, *matcher);
    EXPECT_GT(baseline.comparisons_executed, 0u) << algo.label;
    EXPECT_GT(baseline.matches_found, 0u) << algo.label;

    SimulatorOptions with_ckpt = BaseOptions(rate);
    with_ckpt.checkpoint_dir = dir.string();
    with_ckpt.checkpoint_every = 3;
    with_ckpt.checkpoint_keep = 0;  // keep every checkpoint
    const StreamSimulator ckpt_simulator(&dataset, with_ckpt);
    auto ckpt_algo = algo.make(dataset);
    const RunResult checkpointed = ckpt_simulator.Run(*ckpt_algo, *matcher);
    ExpectSameResult(baseline, checkpointed,
                     std::string(algo.label) + " checkpointing run");

    const auto files = CheckpointFiles(dir);
    // Seed (0), 3, 6, 9, and the always-written final increment (10).
    ASSERT_EQ(files.size(), 5u) << algo.label;
    for (const std::string& file : files) {
      std::ifstream snapshot(file, std::ios::binary);
      ASSERT_TRUE(snapshot.is_open()) << file;
      auto resumed_algo = algo.make(dataset);
      std::string error;
      const auto resumed =
          simulator.Resume(*resumed_algo, *matcher, snapshot, &error);
      ASSERT_TRUE(resumed.has_value()) << algo.label << " " << file << ": "
                                       << error;
      ExpectSameResult(baseline, *resumed,
                       std::string(algo.label) + " resume from " + file);
    }
  }

  fs::path dir_;
};

TEST_F(RecoveryEquivalenceTest, StaticStream) {
  const Dataset dataset = TinyDataset();
  for (const auto& algo : AllCases()) {
    CheckAlgorithm(algo, dataset, /*rate=*/0.0);
  }
}

TEST_F(RecoveryEquivalenceTest, PacedStream) {
  const Dataset dataset = TinyDataset();
  for (const auto& algo : AllCases()) {
    CheckAlgorithm(algo, dataset, /*rate=*/200.0);
  }
}

TEST_F(RecoveryEquivalenceTest, ResumeWithMoreThreadsSameCurve) {
  // Verdict order is deterministic for every execution thread count,
  // so a resume on 2 threads must reproduce the 1-thread curve. This
  // variant also runs under TSan in CI.
  const Dataset dataset = TinyDataset();
  SimulatorOptions with_ckpt = BaseOptions(0.0);
  with_ckpt.checkpoint_dir = dir_.string();
  with_ckpt.checkpoint_every = 4;
  with_ckpt.checkpoint_keep = 0;
  const StreamSimulator ckpt_simulator(&dataset, with_ckpt);
  const auto matcher = MakeMatcher("JS", 0.5);
  auto algo = MakePier(dataset, PierStrategy::kIPcs);
  const RunResult baseline = ckpt_simulator.Run(*algo, *matcher);

  SimulatorOptions threaded = BaseOptions(0.0);
  threaded.execution_threads = 2;
  const StreamSimulator resumed_simulator(&dataset, threaded);
  const auto files = CheckpointFiles(dir_);
  ASSERT_GE(files.size(), 2u);
  std::ifstream snapshot(files[1], std::ios::binary);
  auto resumed_algo = MakePier(dataset, PierStrategy::kIPcs);
  std::string error;
  const auto resumed =
      resumed_simulator.Resume(*resumed_algo, *matcher, snapshot, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  ExpectSameResult(baseline, *resumed, "threaded resume");
}

TEST_F(RecoveryEquivalenceTest, TamperedSnapshotRejected) {
  const Dataset dataset = TinyDataset();
  SimulatorOptions with_ckpt = BaseOptions(0.0);
  with_ckpt.checkpoint_dir = dir_.string();
  with_ckpt.checkpoint_every = 5;
  with_ckpt.checkpoint_keep = 0;
  const StreamSimulator simulator(&dataset, with_ckpt);
  const auto matcher = MakeMatcher("JS", 0.5);
  auto algo = MakePier(dataset, PierStrategy::kIPcs);
  (void)simulator.Run(*algo, *matcher);
  const auto files = CheckpointFiles(dir_);
  ASSERT_FALSE(files.empty());

  std::string bytes;
  {
    std::ifstream in(files.back(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 200u);
  // Flip one byte in every 97-byte stride across the whole file; each
  // variant must be rejected with a diagnostic, never silently loaded.
  for (size_t i = 0; i < bytes.size(); i += 97) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    std::istringstream snapshot(corrupt);
    auto fresh = MakePier(dataset, PierStrategy::kIPcs);
    std::string error;
    const auto resumed =
        simulator.Resume(*fresh, *matcher, snapshot, &error);
    EXPECT_FALSE(resumed.has_value()) << "flip at byte " << i;
    EXPECT_FALSE(error.empty()) << "flip at byte " << i;
  }
  // Truncations at every 97-byte stride, too.
  for (size_t len = 0; len < bytes.size(); len += 97) {
    std::istringstream snapshot(bytes.substr(0, len));
    auto fresh = MakePier(dataset, PierStrategy::kIPcs);
    std::string error;
    const auto resumed =
        simulator.Resume(*fresh, *matcher, snapshot, &error);
    EXPECT_FALSE(resumed.has_value()) << "truncated to " << len;
    EXPECT_FALSE(error.empty()) << "truncated to " << len;
  }
}

TEST_F(RecoveryEquivalenceTest, MismatchedConfigurationRejected) {
  const Dataset dataset = TinyDataset();
  SimulatorOptions with_ckpt = BaseOptions(0.0);
  with_ckpt.checkpoint_dir = dir_.string();
  with_ckpt.checkpoint_every = 5;
  const StreamSimulator simulator(&dataset, with_ckpt);
  const auto matcher = MakeMatcher("JS", 0.5);
  auto algo = MakePier(dataset, PierStrategy::kIPcs);
  (void)simulator.Run(*algo, *matcher);
  const auto files = CheckpointFiles(dir_);
  ASSERT_FALSE(files.empty());
  const std::string file = files.back();

  // Different increment split.
  {
    SimulatorOptions other = BaseOptions(0.0);
    other.num_increments = 7;
    const StreamSimulator mismatched(&dataset, other);
    std::ifstream snapshot(file, std::ios::binary);
    auto fresh = MakePier(dataset, PierStrategy::kIPcs);
    std::string error;
    EXPECT_FALSE(
        mismatched.Resume(*fresh, *matcher, snapshot, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
  // Different algorithm.
  {
    std::ifstream snapshot(file, std::ios::binary);
    auto fresh = MakePier(dataset, PierStrategy::kIPes);
    std::string error;
    EXPECT_FALSE(
        simulator.Resume(*fresh, *matcher, snapshot, &error).has_value());
    EXPECT_NE(error.find("algorithm"), std::string::npos) << error;
  }
  // Different matcher.
  {
    std::ifstream snapshot(file, std::ios::binary);
    auto fresh = MakePier(dataset, PierStrategy::kIPcs);
    const auto other_matcher = MakeMatcher("ED", 0.5);
    std::string error;
    EXPECT_FALSE(simulator.Resume(*fresh, *other_matcher, snapshot, &error)
                     .has_value());
    EXPECT_NE(error.find("matcher"), std::string::npos) << error;
  }
  // An algorithm without snapshot support reports it.
  {
    std::ifstream snapshot(file, std::ios::binary);
    class NoSnapshotAlgo : public IBase {
     public:
      NoSnapshotAlgo() : IBase(DatasetKind::kCleanClean, BlockingOptions()) {}
      bool SupportsSnapshot() const override { return false; }
      bool Restore(const persist::SnapshotReader& reader,
                   std::string* error) override {
        return ErAlgorithm::Restore(reader, error);
      }
      const char* name() const override { return "I-PCS"; }  // pass meta
    };
    NoSnapshotAlgo fresh;
    std::string error;
    EXPECT_FALSE(
        simulator.Resume(fresh, *matcher, snapshot, &error).has_value());
    EXPECT_NE(error.find("snapshot"), std::string::npos) << error;
  }
}

// The frontier seed lives in the pipeline's options fingerprint
// (`pier.meta`), not in the simulator's: a SPER-SK checkpoint never
// resumes into a differently-seeded pipeline, which would continue a
// different comparison stream.
TEST_F(RecoveryEquivalenceTest, DifferentFrontierSeedRejected) {
  const Dataset dataset = TinyDataset();
  SimulatorOptions with_ckpt = BaseOptions(0.0);
  with_ckpt.checkpoint_dir = dir_.string();
  with_ckpt.checkpoint_every = 5;
  const StreamSimulator simulator(&dataset, with_ckpt);
  const auto matcher = MakeMatcher("JS", 0.5);
  const auto make_sper_sk = [&](uint64_t seed) {
    PierOptions options;
    options.kind = dataset.kind;
    options.strategy = PierStrategy::kSperSk;
    options.prioritizer.frontier_seed = seed;
    return std::make_unique<PierAdapter>(options);
  };
  auto algo = make_sper_sk(42);
  (void)simulator.Run(*algo, *matcher);
  const auto files = CheckpointFiles(dir_);
  ASSERT_FALSE(files.empty());
  const std::string file = files[files.size() / 2];
  {
    std::ifstream snapshot(file, std::ios::binary);
    auto fresh = make_sper_sk(43);
    std::string error;
    EXPECT_FALSE(
        simulator.Resume(*fresh, *matcher, snapshot, &error).has_value());
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
  }
  {
    std::ifstream snapshot(file, std::ios::binary);
    auto fresh = make_sper_sk(42);
    std::string error;
    EXPECT_TRUE(
        simulator.Resume(*fresh, *matcher, snapshot, &error).has_value())
        << error;
  }
}

TEST_F(RecoveryEquivalenceTest, MissingClusterSectionRejected) {
  // Every section the simulator writes is required: a checkpoint
  // without 'sim.clusters' is refused, not resumed with an empty
  // cluster partition.
  const Dataset dataset = TinyDataset();
  SimulatorOptions with_ckpt = BaseOptions(0.0);
  with_ckpt.checkpoint_dir = dir_.string();
  with_ckpt.checkpoint_every = 5;
  const StreamSimulator simulator(&dataset, with_ckpt);
  const auto matcher = MakeMatcher("JS", 0.5);
  auto algo = MakePier(dataset, PierStrategy::kIPcs);
  (void)simulator.Run(*algo, *matcher);
  const auto files = CheckpointFiles(dir_);
  ASSERT_FALSE(files.empty());

  std::ifstream in(files.back(), std::ios::binary);
  persist::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(in, &error)) << error;
  ASSERT_TRUE(reader.Has("sim.clusters"));
  persist::SnapshotBuilder without;
  for (const std::string& name : reader.section_names()) {
    if (name != "sim.clusters") {
      without.AddSection(name) << *reader.Section(name);
    }
  }
  std::istringstream snapshot(without.Bytes());
  auto fresh = MakePier(dataset, PierStrategy::kIPcs);
  EXPECT_FALSE(
      simulator.Resume(*fresh, *matcher, snapshot, &error).has_value());
  EXPECT_NE(error.find("sim.clusters"), std::string::npos) << error;
}

}  // namespace
}  // namespace pier
