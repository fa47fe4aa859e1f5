// Shared scaffolding for the benches: scaled dataset construction,
// algorithm factory, run driver, and printing (pier_reproduce draws
// the paper's table and figures with it).
//
// Every bench accepts the environment variable PIER_BENCH_SCALE:
//   tiny            -- CI-smoke sizes, seconds per bench
//   small (default) -- laptop-scale datasets, minutes for all benches
//   paper           -- larger datasets closer to the paper's sizes
// Figures print their data as CSV series (series,time,comparisons,
// matches,pc) followed by the summary table; EXPERIMENTS.md records
// the shape comparison against the paper.

#ifndef PIER_BENCH_BENCH_HARNESS_H_
#define PIER_BENCH_BENCH_HARNESS_H_

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baseline/batch_er.h"
#include "baseline/i_base.h"
#include "baseline/pbs.h"
#include "baseline/pps.h"
#include "baseline/pps_local.h"
#include "datagen/generators.h"
#include "eval/report.h"
#include "similarity/matcher.h"
#include "stream/pier_adapter.h"
#include "stream/stream_simulator.h"

namespace pier {
namespace bench {

enum class Scale { kTiny, kSmall, kPaper };

// PIER_BENCH_SCALE, read on the first call. Unset or empty means
// small; any value but tiny, small or paper prints a diagnostic and
// exits with status 2 rather than silently running small.
inline Scale BenchScale() {
  static const Scale scale = [] {
    const char* value = std::getenv("PIER_BENCH_SCALE");
    const std::string name = value == nullptr ? "" : value;
    if (name == "tiny") return Scale::kTiny;
    if (name.empty() || name == "small") return Scale::kSmall;
    if (name == "paper") return Scale::kPaper;
    std::fprintf(stderr,
                 "PIER_BENCH_SCALE: expected tiny, small or paper, got "
                 "\"%s\"\n",
                 name.c_str());
    std::exit(2);
  }();
  return scale;
}

inline bool PaperScale() { return BenchScale() == Scale::kPaper; }
inline bool TinyScale() { return BenchScale() == Scale::kTiny; }

// The four evaluation datasets of Table 1, at bench scale.
inline Dataset MakeDa() {
  BibliographicOptions options;  // paper-size already (2.6k/2.3k)
  if (TinyScale()) {
    options.source0_count = 400;
    options.source1_count = 350;
  }
  return GenerateBibliographic(options);
}

inline Dataset MakeMovies() {
  MoviesOptions options;
  if (PaperScale()) {
    options.source0_count = 27600;
    options.source1_count = 23100;
  } else if (TinyScale()) {
    options.source0_count = 700;
    options.source1_count = 600;
  } else {
    options.source0_count = 4000;
    options.source1_count = 3400;
  }
  return GenerateMovies(options);
}

inline Dataset MakeCensus() {
  CensusOptions options;
  options.num_records = PaperScale() ? 200000 : TinyScale() ? 2500 : 12000;
  return GenerateCensus(options);
}

inline Dataset MakeDbpedia() {
  DbpediaOptions options;
  if (PaperScale()) {
    options.source0_count = 40000;
    options.source1_count = 60000;
  } else if (TinyScale()) {
    options.source0_count = 900;
    options.source1_count = 1200;
  } else {
    options.source0_count = 5000;
    options.source1_count = 7000;
  }
  return GenerateDbpedia(options);
}

// Time budgets mirroring the paper's 5 min (small/medium) and 80 min
// (large) at bench scale.
inline double SmallBudget() {
  return PaperScale() ? 60.0 : TinyScale() ? 2.0 : 5.0;
}
inline double LargeBudget() {
  return PaperScale() ? 120.0 : TinyScale() ? 5.0 : 20.0;
}

inline std::unique_ptr<Matcher> MakeBenchMatcher(const std::string& name) {
  if (name == "JS") return std::make_unique<JaccardMatcher>(0.35);
  return std::make_unique<EditDistanceMatcher>(0.75, /*max_text_length=*/256);
}

// Algorithm factory by display name.
inline std::unique_ptr<ErAlgorithm> MakeAlgorithm(const std::string& name,
                                                  DatasetKind kind) {
  BlockingOptions blocking;
  blocking.max_block_size = 300;  // aggressive purging at bench scale
  if (name == "BATCH") return std::make_unique<BatchEr>(kind, blocking);
  if (name == "PBS") return std::make_unique<Pbs>(kind, blocking);
  if (name == "PBS-GLOBAL") {
    return std::make_unique<Pbs>(kind, blocking,
                                 BaselineMode::kGlobalIncremental);
  }
  if (name == "PPS") return std::make_unique<Pps>(kind, blocking);
  if (name == "PPS-GLOBAL") {
    return std::make_unique<Pps>(kind, blocking,
                                 BaselineMode::kGlobalIncremental);
  }
  if (name == "PPS-LOCAL") return std::make_unique<PpsLocal>(kind, blocking);
  if (name == "I-BASE") return std::make_unique<IBase>(kind, blocking);
  PierOptions options;
  options.kind = kind;
  options.blocking = blocking;
  if (!ParseAlgorithmName(name, &options.strategy)) {
    std::fprintf(stderr,
                 "unknown algorithm '%s' (baselines: BATCH, PBS, PBS-GLOBAL, "
                 "PPS, PPS-GLOBAL, PPS-LOCAL, I-BASE; strategies: %s)\n",
                 name.c_str(), KnownAlgorithmNames());
    std::exit(2);
  }
  return std::make_unique<PierAdapter>(options);
}

inline RunResult RunOne(const Dataset& dataset, const std::string& algorithm,
                        const std::string& matcher_name,
                        const SimulatorOptions& sim_options) {
  const StreamSimulator simulator(&dataset, sim_options);
  const auto matcher = MakeBenchMatcher(matcher_name);
  const auto algorithm_impl = MakeAlgorithm(algorithm, dataset.kind);
  RunResult result = simulator.Run(*algorithm_impl, *matcher);
  result.algorithm = algorithm;  // display name incl. mode
  return result;
}

inline void PrintFigure(const std::string& title,
                        const std::vector<RunResult>& runs, double horizon) {
  std::printf("\n=== %s ===\n", title.c_str());
  PrintCurveCsv(std::cout, runs, /*max_points=*/32);
  std::printf("--- summary (horizon %.1fs) ---\n", horizon);
  PrintSummaryTable(std::cout, runs, horizon);
}

}  // namespace bench
}  // namespace pier

#endif  // PIER_BENCH_BENCH_HARNESS_H_
