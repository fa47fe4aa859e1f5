// Reproduces the paper's evidence: Table 1, Figures 1-8 (there is no
// Figure 3 experiment) and the design-choice ablation, one per run.
//
//   PIER_BENCH_SCALE=tiny build/bench/pier_reproduce --figure=4
//
// Arguments:
//   --figure=ID         table1, 1, 2, 4, 5, 6, 7, 8 or ablation
//   PIER_BENCH_SCALE    tiny|small|paper workload size (bench_harness.h)
//
// Figures print their data as CSV series followed by the summary
// table; EXPERIMENTS.md records the shape comparison against the paper.
// An unknown --figure lists the valid ids and exits with status 2.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "baseline/dysni.h"
#include "baseline/psn.h"
#include "bench/bench_harness.h"
#include "blocking/block_collection.h"
#include "model/token_dictionary.h"
#include "text/tokenizer.h"
#include "tools/flags.h"

namespace {

using namespace pier;
using namespace pier::bench;

// Simulator options on the deterministic (modeled) cost clock. A rate
// of 0 delivers every increment at time 0: the static setting.
SimulatorOptions Modeled(size_t increments, double increments_per_second,
                         double budget_s) {
  SimulatorOptions sim;
  sim.num_increments = increments;
  sim.increments_per_second = increments_per_second;
  sim.cost_mode = CostMeter::Mode::kModeled;
  sim.time_budget_s = budget_s;
  return sim;
}

// The static setting of Figures 4 and 5: the four datasets, each with
// its increment count and (Figure 4's) time budget.
struct StaticWorkload {
  Dataset dataset;
  size_t increments;
  double budget;
};

std::vector<StaticWorkload> StaticWorkloads() {
  std::vector<StaticWorkload> workloads;
  workloads.push_back({MakeDa(), 1000, SmallBudget()});
  workloads.push_back({MakeMovies(), 1000, SmallBudget()});
  workloads.push_back({MakeCensus(), 2000, LargeBudget()});
  workloads.push_back({MakeDbpedia(), 3000, LargeBudget()});
  return workloads;
}

// The share of true matches each run has found after 10%, 20%, ...,
// 100% of the most comparisons any run executed, one row per step.
void PrintPcPerComparison(const std::vector<RunResult>& runs, int width) {
  std::printf("%-8s", "frac");
  for (const auto& r : runs) std::printf(" %*s", width, r.algorithm.c_str());
  std::printf("\n");
  uint64_t max_cmps = 0;
  for (const auto& r : runs) {
    max_cmps = std::max(max_cmps, r.comparisons_executed);
  }
  for (int step = 1; step <= 10; ++step) {
    const uint64_t c = max_cmps * step / 10;
    std::printf("%-8.1f", 0.1 * step);
    for (const auto& r : runs) {
      const double pc =
          r.total_true_matches == 0
              ? 0.0
              : static_cast<double>(r.curve.MatchesAtComparisons(c)) /
                    static_cast<double>(r.total_true_matches);
      std::printf(" %*.3f", width, pc);
    }
    std::printf("\n");
  }
}

void Describe(const Dataset& d, const char* paper_row) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  BlockCollection blocks(d.kind);
  for (auto profile : d.profiles) {  // copy: keep dataset pristine
    tokenizer.TokenizeProfile(profile, dict);
    blocks.AddProfile(profile);
  }
  std::printf("%-14s %-12s %9zu %9zu %9zu %10zu %12llu  (paper: %s)\n",
              d.name.c_str(), ToString(d.kind), d.NumProfiles(0),
              d.NumProfiles(1), d.truth.size(), blocks.NumBlocks(),
              static_cast<unsigned long long>(blocks.TotalComparisons()),
              paper_row);
}

// Table 1: dataset characteristics (#profiles per source, #matches) of
// the four generated evaluation datasets, plus blocking statistics that
// contextualize the substitution (see DESIGN.md).
void Table1() {
  std::printf("Table 1: dataset characteristics (generated stand-ins)\n");
  std::printf("%-14s %-12s %9s %9s %9s %10s %12s\n", "name", "kind",
              "|src0|", "|src1|", "matches", "blocks", "blk-cmps");
  Describe(MakeDa(), "dblp-acm 2.62k-2.29k, 2.22k matches");
  Describe(MakeMovies(), "movies 27.6k-23.1k, 22.8k matches");
  Describe(MakeCensus(), "2M synthetic, 1.7M matches");
  Describe(MakeDbpedia(), "dbpedia 1.19M-2.16M, 892k matches");
  std::printf("\nset PIER_BENCH_SCALE=paper for larger datasets\n");
}

// Figure 1: the qualitative behaviour of batch, progressive (PBS),
// incremental (I-BASE), and PIER (I-PES) ER over a static dataset --
// batch reports everything at the end, progressive front-loads matches
// after its pre-analysis, incremental steps up per increment, PIER
// front-loads *and* works incrementally.
void Figure1() {
  const Dataset d = MakeMovies();
  const SimulatorOptions sim = Modeled(50, 0.0, LargeBudget());  // static

  std::vector<RunResult> runs;
  for (const char* alg : {"BATCH", "PBS", "I-BASE", "I-PES"}) {
    runs.push_back(RunOne(d, alg, "JS", sim));
  }

  // Summarize relative to batch ER's completion time (the reference
  // point of Definition 1: early quality is judged before F_batch
  // finishes).
  const double horizon = runs.front().end_time;
  PrintFigure("Figure 1: matches over time, static data (" + d.name + ", JS)",
              runs, horizon);

  std::printf("\nNote: batch ER's matches all surface near its completion; "
              "PBS needs the full dataset before emitting; I-BASE rises "
              "stepwise; I-PES rises early and keeps rising.\n");
}

// Figure 2: PPS-GLOBAL, PPS-LOCAL, I-BASE, and I-PES on the movies
// dataset under four stream regimes -- slow vs fast, short (100
// increments) vs long (600 increments). Expected shape (paper):
// PPS-LOCAL flat near zero everywhere; PPS-GLOBAL fine on slow streams
// but collapsing on fast/long ones (prioritization reassessed per
// increment over ever more data); I-BASE eventually good but late on
// fast streams (fixed work per increment, backpressure); I-PES best
// early and eventual.
//
// Rates are derived from stream *durations* relative to the total
// matching work (expensive ED matcher), which is what distinguishes
// the regimes: "slow" leaves idle time between increments, "fast"
// delivers the whole stream in a fraction of the time the matcher
// needs for all comparisons.
void Figure2() {
  // PPS-GLOBAL re-runs its full pre-analysis on every increment, so
  // this figure uses a reduced movies dataset at small scale.
  Dataset d;
  if (PaperScale()) {
    d = MakeMovies();
  } else {
    MoviesOptions options;
    options.source0_count = 2000;
    options.source1_count = 1700;
    d = GenerateMovies(options);
  }
  const char* algorithms[] = {"PPS-GLOBAL", "PPS-LOCAL", "I-BASE", "I-PES"};

  struct Regime {
    const char* label;
    size_t increments;
    double stream_duration_s;
  };
  const Regime regimes[] = {
      {"slow-short", 100, 60.0},
      {"fast-short", 100, 0.5},
      {"slow-long", 600, 120.0},
      {"fast-long", 600, 0.5},
  };

  for (const auto& regime : regimes) {
    // Budget: the nominal stream duration plus slack for processing.
    const SimulatorOptions sim = Modeled(
        regime.increments,
        static_cast<double>(regime.increments) / regime.stream_duration_s,
        regime.stream_duration_s + 2.0 * LargeBudget());

    std::vector<RunResult> runs;
    for (const char* alg : algorithms) {
      runs.push_back(RunOne(d, alg, "ED", sim));
    }
    char title[160];
    std::snprintf(title, sizeof(title),
                  "Figure 2: %s (%zu dD at %.1f dD/s, %s, ED)", regime.label,
                  regime.increments, sim.increments_per_second,
                  d.name.c_str());
    PrintFigure(title, runs, sim.time_budget_s);
  }
}

// Figure 4: PC over time in the progressive (static) setting -- PPS,
// PBS, I-PCS, I-PBS, I-PES on all four datasets, with the cheap (JS)
// and the expensive (ED) matcher, under a time budget (paper: 5 min
// small / 80 min large; here scaled, see bench_harness).
//
// Expected shape (paper Section 7.2): PPS ~ I-PES eventually, but PPS
// pays a long initialization on large datasets; PBS strong with JS;
// I-PBS/I-PCS degrade with ED (small K, CBS-misled priorities); I-PES
// the most robust incremental method.
void Figure4() {
  for (const auto& workload : StaticWorkloads()) {
    for (const char* matcher : {"JS", "ED"}) {
      const SimulatorOptions sim =
          Modeled(workload.increments, 0.0, workload.budget);
      std::vector<RunResult> runs;
      for (const char* alg : {"PPS", "PBS", "I-PCS", "I-PBS", "I-PES"}) {
        runs.push_back(RunOne(workload.dataset, alg, matcher, sim));
      }
      PrintFigure("Figure 4: PC over time, " + workload.dataset.name + ", " +
                      matcher + " (static)",
                  runs, workload.budget);
    }
  }
}

// Figure 5: PC per *emitted comparison* (no time budget) in the static
// setting -- how much of each algorithm's effort is wasted on
// non-matching comparisons. Expected shape (paper): PPS the steepest;
// I-PES close; I-PCS needs far more comparisons for the same PC (CBS
// favours long, non-matching profiles); I-PBS in between.
void Figure5() {
  for (const auto& workload : StaticWorkloads()) {
    // Run to completion but keep a generous safety ceiling.
    const SimulatorOptions sim =
        Modeled(workload.increments, 0.0, 50.0 * LargeBudget());

    std::vector<RunResult> runs;
    for (const char* alg : {"PPS", "PBS", "I-PCS", "I-PBS", "I-PES"}) {
      // JS keeps comparisons cheap so every algorithm can finish; the
      // x-axis of interest is comparisons, not time.
      runs.push_back(RunOne(workload.dataset, alg, "JS", sim));
    }

    std::printf("\n=== Figure 5: PC per emitted comparison, %s ===\n",
                workload.dataset.name.c_str());
    PrintPcPerComparison(runs, /*width=*/10);
    std::printf("total comparisons:");
    for (const auto& r : runs) {
      std::printf(" %s=%llu", r.algorithm.c_str(),
                  static_cast<unsigned long long>(r.comparisons_executed));
    }
    std::printf("\n");
  }
}

// Figure 6: influence of increment size on the dbpedia-like dataset
// with the expensive (ED) matcher -- many small increments vs. few
// large ones, I-PBS and I-PES against their batch counterparts PBS and
// PPS. Expected shape (paper): with fewer, larger increments the
// incremental methods' comparison order approaches the batch-optimal
// one (clearly for I-PBS vs PBS), at the price of longer per-increment
// pre-analysis; PPS only wins after its very long initialization.
void Figure6() {
  const Dataset d = MakeDbpedia();
  const double budget = 0.5 * LargeBudget();

  const size_t many = PaperScale() ? 30000 : 3000;   // ~a few profiles each
  const size_t few = PaperScale() ? 300 : 30;        // large increments

  std::vector<RunResult> runs;
  for (const size_t increments : {many, few}) {
    for (const char* alg : {"I-PBS", "I-PES"}) {
      RunResult r = RunOne(d, alg, "ED", Modeled(increments, 0.0, budget));
      r.algorithm = std::string(alg) + "(" + std::to_string(increments) + ")";
      runs.push_back(std::move(r));
    }
  }
  // Batch baselines for reference (single increment).
  runs.push_back(RunOne(d, "PBS", "ED", Modeled(1, 0.0, budget)));
  runs.push_back(RunOne(d, "PPS", "ED", Modeled(1, 0.0, budget)));

  PrintFigure("Figure 6: increment-size influence, " + d.name + ", ED",
              runs, budget);

  std::printf("\nPC per emitted comparison (right-hand plots):\n");
  PrintPcPerComparison(runs, /*width=*/14);
}

// Figure 7: the incremental setting with a fast stream (32 dD/s) on
// the census-like (2M stand-in) and dbpedia-like datasets, JS and ED
// matchers; all incremental algorithms plus the PPS/PBS GLOBAL
// adaptations. The "x" (stream fully consumed) shows up in the
// summary's consumed_s column. Expected shape (paper): PPS/PBS-GLOBAL
// near zero; I-BASE decent with JS but late, stagnating with ED
// (cannot consume the stream); PIER algorithms adaptive, I-PES best on
// the heterogeneous dataset, I-PBS competitive on census.
void Figure7() {
  const size_t increments = PaperScale() ? 20000 : 600;
  for (const Dataset& d : {MakeCensus(), MakeDbpedia()}) {
    for (const char* matcher : {"JS", "ED"}) {
      const SimulatorOptions sim =
          Modeled(increments, 32.0,
                  LargeBudget() + static_cast<double>(increments) / 32.0);

      std::vector<RunResult> runs;
      for (const char* alg :
           {"PPS-GLOBAL", "PBS-GLOBAL", "I-BASE", "I-PCS", "I-PBS",
            "I-PES"}) {
        runs.push_back(RunOne(d, alg, matcher, sim));
      }
      PrintFigure("Figure 7: fast stream 32 dD/s, " + d.name + ", " +
                      matcher,
                  runs, sim.time_budget_s);
    }
  }
}

// Figure 8: the incremental setting at varying input rates (4, 8, 16
// dD/s) on the census-like and dbpedia-like datasets (JS and ED).
// Expected shape (paper): on slow streams I-BASE keeps up and all
// methods look similar; as the rate grows, I-BASE stagnates while the
// adaptive PIER methods keep improving early quality; with ED
// everything slows, I-PES degrades the most gracefully.
void Figure8() {
  const size_t increments = PaperScale() ? 20000 : 400;
  for (const Dataset& d : {MakeCensus(), MakeDbpedia()}) {
    for (const char* matcher : {"JS", "ED"}) {
      for (const double rate : {4.0, 8.0, 16.0}) {
        const SimulatorOptions sim =
            Modeled(increments, rate,
                    LargeBudget() + static_cast<double>(increments) / rate);

        std::vector<RunResult> runs;
        for (const char* alg : {"I-BASE", "I-PCS", "I-PBS", "I-PES"}) {
          runs.push_back(RunOne(d, alg, matcher, sim));
        }
        char title[160];
        std::snprintf(title, sizeof(title),
                      "Figure 8: rate %.0f dD/s, %s, %s", rate,
                      d.name.c_str(), matcher);
        PrintFigure(title, runs, sim.time_budget_s);
      }
    }
  }
}

RunResult RunConfig(const Dataset& d, const std::string& label,
                    PierOptions options, const Matcher& matcher,
                    const SimulatorOptions& sim_options) {
  const StreamSimulator simulator(&d, sim_options);
  PierAdapter adapter(options);
  RunResult r = simulator.Run(adapter, matcher);
  r.algorithm = label;
  return r;
}

// Ablation of the design choices DESIGN.md calls out, on the movies
// dataset with I-PES in an incremental (16 dD/s) setting unless noted:
//   (a) block-ghosting beta sweep,
//   (b) CmpIndex / per-entity capacity sweep (bounded-memory effect),
//   (c) adaptive K vs. fixed K,
//   (e) meta-blocking weighting scheme swap (CBS/ECBS/JS/ARCS),
//   (f) extension: PSN progressive baselines vs blocking-based ones
//       (bibliographic, static).
void Ablation() {
  const Dataset d = MakeMovies();
  const EditDistanceMatcher ed(0.75, 256);
  const JaccardMatcher js(0.35);

  const SimulatorOptions sim = Modeled(400, 16.0, 25.0 + 2.0 * LargeBudget());

  PierOptions base;
  base.kind = d.kind;
  base.strategy = PierStrategy::kIPes;
  base.blocking.max_block_size = 300;

  // (a) beta sweep.
  {
    std::vector<RunResult> runs;
    for (const double beta : {0.2, 0.5, 0.8, 1.0}) {
      PierOptions options = base;
      options.prioritizer.beta = beta;
      runs.push_back(RunConfig(d, "beta=" + std::to_string(beta).substr(0, 3),
                               options, js, sim));
    }
    PrintFigure("Ablation (a): block-ghosting beta (I-PES, JS)", runs,
                sim.time_budget_s);
  }

  // (b) queue-capacity sweep.
  {
    std::vector<RunResult> runs;
    for (const size_t capacity : {size_t{1} << 8, size_t{1} << 12,
                                  size_t{1} << 18}) {
      PierOptions options = base;
      options.prioritizer.cmp_index_capacity = capacity;
      options.prioritizer.entity_queue_capacity = capacity;
      options.prioritizer.low_weight_queue_capacity = capacity;
      options.prioritizer.per_entity_capacity =
          std::max<size_t>(4, capacity >> 10);
      runs.push_back(RunConfig(d, "cap=" + std::to_string(capacity),
                               options, js, sim));
    }
    PrintFigure("Ablation (b): bounded-queue capacity (I-PES, JS)", runs,
                sim.time_budget_s);
  }

  // (c) adaptive vs fixed K, expensive matcher (where K matters).
  {
    std::vector<RunResult> runs;
    runs.push_back(RunConfig(d, "adaptive-K", base, ed, sim));
    for (const size_t fixed : {size_t{16}, size_t{4096}}) {
      PierOptions options = base;
      options.adaptive_k.initial_k = fixed;
      options.adaptive_k.min_k = fixed;
      options.adaptive_k.max_k = fixed;
      runs.push_back(
          RunConfig(d, "fixed-K=" + std::to_string(fixed), options, ed,
                    sim));
    }
    PrintFigure("Ablation (c): adaptive vs fixed K (I-PES, ED)", runs,
                sim.time_budget_s);
  }

  // (f) progressive-baseline zoo (extension): the two PSN variants
  // from the paper's related work vs PBS/PPS vs I-PES, static setting.
  {
    const Dataset da = MakeDa();
    const SimulatorOptions static_sim = Modeled(1, 0.0, SmallBudget());
    const JaccardMatcher js_da(0.35);
    std::vector<RunResult> runs;
    BlockingOptions blocking;
    blocking.max_block_size = 300;
    for (const PsnVariant variant :
         {PsnVariant::kGlobal, PsnVariant::kLocal}) {
      Psn psn(da.kind, blocking, variant);
      const StreamSimulator simulator(&da, static_sim);
      runs.push_back(simulator.Run(psn, js_da));
    }
    {
      DySni dysni(da.kind, blocking);
      const StreamSimulator simulator(&da, static_sim);
      runs.push_back(simulator.Run(dysni, js_da));
    }
    runs.push_back(RunOne(da, "PBS", "JS", static_sim));
    runs.push_back(RunOne(da, "PPS", "JS", static_sim));
    runs.push_back(RunOne(da, "I-PES", "JS", static_sim));
    PrintFigure("Ablation (f): PSN variants vs blocking-based methods "
                "(bibliographic, JS)",
                runs, static_sim.time_budget_s);
  }

  // (e) weighting schemes.
  {
    std::vector<RunResult> runs;
    for (const WeightingScheme scheme :
         {WeightingScheme::kCbs, WeightingScheme::kEcbs,
          WeightingScheme::kJs, WeightingScheme::kArcs}) {
      PierOptions options = base;
      options.prioritizer.scheme = scheme;
      runs.push_back(RunConfig(d, ToString(scheme), options, ed, sim));
    }
    PrintFigure("Ablation (e): weighting scheme (I-PES, ED)", runs,
                sim.time_budget_s);
  }
}

struct Experiment {
  const char* id;
  void (*run)();
};

constexpr Experiment kExperiments[] = {
    {"table1", Table1},
    {"1", Figure1},
    {"2", Figure2},
    {"4", Figure4},
    {"5", Figure5},
    {"6", Figure6},
    {"7", Figure7},
    {"8", Figure8},
    {"ablation", Ablation},
};

}  // namespace

int main(int argc, char** argv) {
  const tools::Flags args = tools::ParseArgs(argc, argv, {"figure"});
  const std::string figure = tools::Get(args, "figure", "");
  const Experiment* experiment = std::find_if(
      std::begin(kExperiments), std::end(kExperiments),
      [&](const Experiment& e) { return figure == e.id; });
  if (experiment == std::end(kExperiments)) {
    std::fprintf(stderr, "unknown --figure '%s' (valid:", figure.c_str());
    for (const Experiment& e : kExperiments) std::fprintf(stderr, " %s", e.id);
    std::fprintf(stderr, ")\n");
    return 2;
  }
  BenchScale();  // a bad PIER_BENCH_SCALE exits here, before any work
  experiment->run();
  return 0;
}
