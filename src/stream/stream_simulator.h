// Discrete-event stream simulator: replays a dataset as a sequence of
// increments arriving at a configurable rate (Section 3.1) against any
// ErAlgorithm, interleaving arrivals with comparison processing on a
// virtual clock. Produces the progressive curves of Section 7.
//
// Semantics reproduced from the paper's Akka pipeline:
//  * an increment is delivered as soon as its arrival time has passed
//    and the algorithm is ready (backpressure buffers it otherwise);
//  * between arrivals the algorithm emits comparison batches that the
//    matcher processes (their cost advances the clock);
//  * when the algorithm has no work and no arrival is due, idle ticks
//    (the blocking step's periodic empty increments) let it pull older
//    pairs forward; if a tick yields nothing, the clock jumps to the
//    next arrival (the idle "steps" of Figure 2);
//  * the run ends when the budget is exhausted or when the stream is
//    consumed and two consecutive ticks produce no work.

#ifndef PIER_STREAM_STREAM_SIMULATOR_H_
#define PIER_STREAM_STREAM_SIMULATOR_H_

#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "eval/run_result.h"
#include "model/dataset.h"
#include "obs/metrics.h"
#include "similarity/matcher.h"
#include "stream/cost_meter.h"
#include "stream/er_algorithm.h"

namespace pier {
namespace persist {
class SnapshotBuilder;
class SnapshotReader;
}  // namespace persist
}  // namespace pier

namespace pier {

struct SimulatorOptions {
  // Number of equi-sized increments the dataset is split into.
  size_t num_increments = 100;

  // Increment arrival rate in increments/second. An infinite rate
  // (the default marker 0) means all increments are available at t=0
  // -- the paper's *static* setting.
  double increments_per_second = 0.0;

  // Virtual-time budget; the run stops once the clock passes it.
  double time_budget_s = std::numeric_limits<double>::infinity();

  // Cost attribution mode.
  CostMeter::Mode cost_mode = CostMeter::Mode::kModeled;

  // Worker threads for match execution (1 = sequential). The verdict
  // stream is deterministic in emission order, so with the modeled
  // cost meter the resulting curves are bit-identical for every
  // value; with the measured meter only wall time changes.
  size_t execution_threads = 1;

  // Observability (see src/obs/): when `metrics` is set, the simulator
  // registers and updates its `sim.*` stage metrics there; when
  // `metrics_out` is set, JSON-lines snapshots are written to it --
  // one per `metrics_interval_s` of virtual time (0 = only the final
  // snapshot) plus always one at the end of the run. `metrics_out`
  // without `metrics` uses a run-local registry.
  obs::MetricsRegistry* metrics = nullptr;
  std::ostream* metrics_out = nullptr;
  double metrics_interval_s = 0.0;

  // Checkpointing (see src/persist/): when `checkpoint_dir` is
  // non-empty, the simulator writes a durable snapshot of the
  // algorithm and its own loop state before the first increment and
  // after every `checkpoint_every`-th delivered increment (plus always
  // after the final one). The algorithm must support snapshots
  // (ErAlgorithm::SupportsSnapshot). Checkpoint writes never touch the
  // virtual clock or the algorithm, so a checkpointing run produces
  // exactly the curve an unchecked run would. With the modeled cost
  // meter, Resume() from any checkpoint then reproduces the
  // uninterrupted run's verdict stream and curve bit-for-bit (recovery
  // equivalence); the measured meter has inherently noisy timings.
  std::string checkpoint_dir;
  size_t checkpoint_every = 10;
  size_t checkpoint_keep = 3;

  bool IsStatic() const { return increments_per_second <= 0.0; }
};

class StreamSimulator {
 public:
  // An algorithm that refuses a due increment while holding no pending
  // batch is *stalled* (e.g. a windowed baseline between arrivals):
  // the simulator charges it idle ticks, counts `stalled_ticks`, and
  // ends the run gracefully after this many consecutive stalls.
  static constexpr size_t kStallLimit = 10000;

  StreamSimulator(const Dataset* dataset, SimulatorOptions options);

  // Runs `algorithm` against the stream with `matcher` classifying the
  // emitted comparisons. The algorithm must be freshly constructed.
  RunResult Run(ErAlgorithm& algorithm, const Matcher& matcher) const;

  // Resumes a run from a checkpoint previously written by Run() with
  // `checkpoint_dir` set. `algorithm` must be freshly constructed with
  // the configuration used for the original run, and the simulator's
  // dataset/options must match the ones recorded in the snapshot
  // (diagnosed through `error` otherwise). On success the run plays
  // forward from the checkpointed increment to completion; corrupted
  // or mismatched snapshots return nullopt without mutating anything.
  std::optional<RunResult> Resume(ErAlgorithm& algorithm,
                                  const Matcher& matcher,
                                  std::istream& snapshot,
                                  std::string* error) const;

  const std::vector<Increment>& increments() const { return increments_; }

 private:
  struct LoopState;

  RunResult RunLoop(ErAlgorithm& algorithm, const Matcher& matcher,
                    LoopState& state) const;
  void SnapshotLoopState(persist::SnapshotBuilder& builder,
                         const ErAlgorithm& algorithm, const Matcher& matcher,
                         const LoopState& state) const;
  bool RestoreLoopState(const persist::SnapshotReader& reader,
                        const ErAlgorithm& algorithm, const Matcher& matcher,
                        LoopState* state, std::string* error) const;

  const Dataset* dataset_;
  SimulatorOptions options_;
  std::vector<Increment> increments_;
};

}  // namespace pier

#endif  // PIER_STREAM_STREAM_SIMULATOR_H_
