// The outcome of one simulated ER run: identity, progressive curve,
// and summary statistics. Produced by the stream simulator, consumed
// by the report printers and by EXPERIMENTS.md numbers.

#ifndef PIER_EVAL_RUN_RESULT_H_
#define PIER_EVAL_RUN_RESULT_H_

#include <cstdint>
#include <string>

#include "eval/progressive_curve.h"

namespace pier {

struct RunResult {
  std::string algorithm;
  std::string dataset;
  std::string matcher;

  ProgressiveCurve curve;

  // Cluster-level quality over time (see eval/cluster_recall.h):
  // recorded at the same virtual times as `curve`, with matches_found
  // holding the cumulative count of ground-truth pairs co-clustered by
  // the online cluster index (numerator of ClusterRecall).
  ProgressiveCurve cluster_curve;
  // All intra-ground-truth-cluster pairs (ClusterRecall denominator).
  uint64_t total_cluster_pairs = 0;

  uint64_t total_true_matches = 0;   // |M| (PC denominator)
  uint64_t comparisons_executed = 0;
  uint64_t matches_found = 0;

  // Ticks spent with a due increment refused and no pending batch
  // (see StreamSimulator::kStallLimit); 0 for well-behaved
  // algorithms. `stall_aborted` is set when the run ended because the
  // consecutive-stall limit was hit rather than by draining the work.
  uint64_t stalled_ticks = 0;
  bool stall_aborted = false;

  // Matcher-output quality (beyond the paper's PC focus): how many
  // executed comparisons the matcher classified positive, and how many
  // of those are true duplicates.
  uint64_t matcher_positives = 0;
  uint64_t matcher_true_positives = 0;

  // Virtual time at which the last increment was ingested; < 0 when
  // the stream was not fully consumed within the budget (this is the
  // "x" marker of Figures 7-8).
  double stream_consumed_at = -1.0;
  // Virtual time at which the run finished or hit the budget.
  double end_time = 0.0;

  // Final cluster-level recall: fraction of intra-ground-truth-cluster
  // pairs the online cluster index had co-clustered by the end.
  double FinalClusterRecall() const {
    if (total_cluster_pairs == 0 || cluster_curve.empty()) return 0.0;
    return static_cast<double>(cluster_curve.points().back().matches_found) /
           static_cast<double>(total_cluster_pairs);
  }

  double FinalPc() const {
    return total_true_matches == 0
               ? 0.0
               : static_cast<double>(matches_found) /
                     static_cast<double>(total_true_matches);
  }

  // Precision of the matcher's positive classifications.
  double MatcherPrecision() const {
    return matcher_positives == 0
               ? 0.0
               : static_cast<double>(matcher_true_positives) /
                     static_cast<double>(matcher_positives);
  }

  // Recall of the matcher over the full ground truth (bounded by PC:
  // a pair never emitted can never be classified).
  double MatcherRecall() const {
    return total_true_matches == 0
               ? 0.0
               : static_cast<double>(matcher_true_positives) /
                     static_cast<double>(total_true_matches);
  }

  double MatcherF1() const {
    const double p = MatcherPrecision();
    const double r = MatcherRecall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }

  // Earliest recorded virtual time at which PC reached `target`
  // (fraction of all true matches); negative if never reached.
  double TimeToPc(double target) const {
    const uint64_t needed = static_cast<uint64_t>(
        target * static_cast<double>(total_true_matches));
    for (const auto& p : curve.points()) {
      if (p.matches_found >= needed && needed > 0) return p.time;
    }
    return -1.0;
  }
};

}  // namespace pier

#endif  // PIER_EVAL_RUN_RESULT_H_
