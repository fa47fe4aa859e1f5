// Ablation bench for the design choices DESIGN.md calls out, all on
// the movies dataset with I-PES in an incremental (16 dD/s) setting:
//   (a) block-ghosting beta sweep,
//   (b) CmpIndex / per-entity capacity sweep (bounded-memory effect),
//   (c) adaptive K vs. fixed K,
//   (e) meta-blocking weighting scheme swap (CBS/ECBS/JS/ARCS),
//   (f) extension: PSN progressive baselines vs blocking-based ones.

#include <iostream>

#include "baseline/dysni.h"
#include "baseline/psn.h"
#include "bench/bench_harness.h"

namespace {

using namespace pier;
using namespace pier::bench;

RunResult RunConfig(const Dataset& d, const std::string& label,
                    PierOptions options, const Matcher& matcher,
                    const SimulatorOptions& sim_options) {
  const StreamSimulator simulator(&d, sim_options);
  PierAdapter adapter(options);
  RunResult r = simulator.Run(adapter, matcher);
  r.algorithm = label;
  return r;
}

}  // namespace

int main() {
  const Dataset d = MakeMovies();
  const EditDistanceMatcher ed(0.75, 256);
  const JaccardMatcher js(0.35);

  SimulatorOptions sim;
  sim.num_increments = 400;
  sim.increments_per_second = 16.0;
  sim.cost_mode = CostMeter::Mode::kModeled;
  sim.time_budget_s = 25.0 + 2.0 * LargeBudget();

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
    SimulatorOptions static_sim;
    static_sim.num_increments = 1;
    static_sim.increments_per_second = 0.0;
    static_sim.cost_mode = CostMeter::Mode::kModeled;
    static_sim.time_budget_s = SmallBudget();
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
  return 0;
}
