#include "stream/stream_simulator.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_set>
#include <utility>
#include <vector>

#include "eval/cluster_recall.h"
#include "obs/metrics_io.h"
#include "persist/checkpoint_manager.h"
#include "persist/snapshot.h"
#include "similarity/parallel_executor.h"
#include "util/check.h"
#include "util/serial.h"
#include "util/stopwatch.h"

namespace pier {

namespace {

// The simulator's stage metrics (`sim.*` namespace); every pointer is
// null when the run is not instrumented, making each update one
// predictable branch (see obs/metrics.h).
struct SimMetrics {
  obs::Counter* increments_delivered = nullptr;
  obs::Counter* batches = nullptr;
  obs::Counter* comparisons_executed = nullptr;
  obs::Counter* matches_found = nullptr;
  obs::Counter* matcher_positives = nullptr;
  obs::Counter* match_cost_units = nullptr;
  obs::Counter* idle_ticks = nullptr;
  obs::Counter* stalled_ticks = nullptr;
  obs::Histogram* batch_size = nullptr;
  obs::Histogram* batch_gen_ns = nullptr;
  obs::Histogram* batch_match_ns = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* virtual_time_s = nullptr;
  obs::Gauge* comparisons_per_s = nullptr;
  obs::Gauge* cost_units_per_s = nullptr;
  obs::Gauge* cluster_recall = nullptr;

  explicit SimMetrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    increments_delivered = registry->GetCounter("sim.increments_delivered");
    batches = registry->GetCounter("sim.batches");
    comparisons_executed = registry->GetCounter("sim.comparisons_executed");
    matches_found = registry->GetCounter("sim.matches_found");
    matcher_positives = registry->GetCounter("sim.matcher_positives");
    match_cost_units = registry->GetCounter("sim.match_cost_units");
    idle_ticks = registry->GetCounter("sim.idle_ticks");
    stalled_ticks = registry->GetCounter("sim.stalled_ticks");
    batch_size = registry->GetHistogram("sim.batch_size");
    batch_gen_ns = registry->GetHistogram("sim.batch_gen_ns");
    batch_match_ns = registry->GetHistogram("sim.batch_match_ns");
    queue_depth = registry->GetGauge("sim.queue_depth");
    virtual_time_s = registry->GetGauge("sim.virtual_time_s");
    comparisons_per_s = registry->GetGauge("sim.comparisons_per_s");
    cost_units_per_s = registry->GetGauge("sim.cost_units_per_s");
    cluster_recall = registry->GetGauge("sim.cluster_recall");
  }
};

uint64_t SecondsToNs(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e9);
}

void SetResumeError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

// Everything the run loop mutates lives here, so a checkpoint is a
// pure serialization of one LoopState (+ the algorithm) and a resumed
// run continues from exactly the instant the checkpoint captured.
struct StreamSimulator::LoopState {
  RunResult result;
  double vt = 0.0;
  size_t next_arrival = 0;
  int fruitless_ticks = 0;
  size_t consecutive_stalls = 0;
  bool stream_ended_notified = false;
  uint64_t executed = 0;
  uint64_t found = 0;
  uint64_t last_recorded = 0;
  // True-match pairs already credited (guards against an algorithm
  // emitting the same pair twice, e.g. a Bloom false-negative path).
  std::unordered_set<uint64_t> credited;
  // Cluster-level quality over the positive-verdict stream (feeds
  // result.cluster_curve). Built from the dataset's ground truth in
  // Run()/RestoreLoopState().
  std::unique_ptr<ClusterRecallTracker> tracker;
};

StreamSimulator::StreamSimulator(const Dataset* dataset,
                                 SimulatorOptions options)
    : dataset_(dataset), options_(options) {
  PIER_CHECK(dataset_ != nullptr);
  increments_ = SplitIntoIncrements(*dataset_, options_.num_increments);
}

RunResult StreamSimulator::Run(ErAlgorithm& algorithm,
                               const Matcher& matcher) const {
  LoopState state;
  state.result.algorithm = algorithm.name();
  state.result.dataset = dataset_->name;
  state.result.matcher = matcher.name();
  state.result.total_true_matches = dataset_->truth.size();
  state.result.curve.Add(CurvePoint{0.0, 0, 0});
  state.tracker = std::make_unique<ClusterRecallTracker>(dataset_->truth);
  state.result.total_cluster_pairs = state.tracker->total_cluster_pairs();
  state.result.cluster_curve.Add(CurvePoint{0.0, 0, 0});
  return RunLoop(algorithm, matcher, state);
}

std::optional<RunResult> StreamSimulator::Resume(ErAlgorithm& algorithm,
                                                 const Matcher& matcher,
                                                 std::istream& snapshot,
                                                 std::string* error) const {
  persist::SnapshotReader reader;
  if (!reader.Parse(snapshot, error)) return std::nullopt;
  LoopState state;
  if (!RestoreLoopState(reader, algorithm, matcher, &state, error)) {
    return std::nullopt;
  }
  if (!algorithm.Restore(reader, error)) return std::nullopt;
  state.result.algorithm = algorithm.name();
  state.result.dataset = dataset_->name;
  state.result.matcher = matcher.name();
  state.result.total_true_matches = dataset_->truth.size();
  state.result.total_cluster_pairs = state.tracker->total_cluster_pairs();
  return RunLoop(algorithm, matcher, state);
}

void StreamSimulator::SnapshotLoopState(persist::SnapshotBuilder& builder,
                                        const ErAlgorithm& algorithm,
                                        const Matcher& matcher,
                                        const LoopState& state) const {
  // Configuration fingerprint: a checkpoint only resumes against the
  // same dataset, algorithm, matcher, and cost-relevant options. The
  // execution thread count is deliberately absent -- verdicts are
  // deterministic in emission order for every value.
  std::ostream& meta = builder.AddSection("sim.meta");
  serial::WriteString(meta, algorithm.name());
  serial::WriteString(meta, dataset_->name);
  serial::WriteU64(meta, dataset_->profiles.size());
  serial::WriteString(meta, matcher.name());
  serial::WriteU64(meta, increments_.size());
  serial::WriteU8(meta, static_cast<uint8_t>(options_.cost_mode));
  serial::WriteF64(meta, options_.increments_per_second);
  serial::WriteF64(meta, options_.time_budget_s);
  serial::WriteU64(meta, options_.curve_granularity);
  serial::WriteU64(meta, options_.stall_limit);
  // Conditional trailing field (see SimulatorOptions::frontier_seed):
  // default-seeded runs keep the pre-frontier byte layout.
  if (options_.frontier_seed != SimulatorOptions{}.frontier_seed) {
    serial::WriteU64(meta, options_.frontier_seed);
  }

  std::ostream& st = builder.AddSection("sim.state");
  serial::WriteF64(st, state.vt);
  serial::WriteU64(st, state.next_arrival);
  serial::WriteU32(st, static_cast<uint32_t>(state.fruitless_ticks));
  serial::WriteU64(st, state.consecutive_stalls);
  serial::WriteBool(st, state.stream_ended_notified);
  serial::WriteU64(st, state.executed);
  serial::WriteU64(st, state.found);
  serial::WriteU64(st, state.last_recorded);
  std::vector<uint64_t> credited(state.credited.begin(),
                                 state.credited.end());
  std::sort(credited.begin(), credited.end());
  serial::WriteVec(st, credited, [](std::ostream& o, const uint64_t& key) {
    serial::WriteU64(o, key);
  });
  serial::WriteVec(st, state.result.curve.points(),
                   [](std::ostream& o, const CurvePoint& p) {
                     serial::WriteF64(o, p.time);
                     serial::WriteU64(o, p.comparisons);
                     serial::WriteU64(o, p.matches_found);
                   });
  serial::WriteU64(st, state.result.matcher_positives);
  serial::WriteU64(st, state.result.matcher_true_positives);
  serial::WriteU64(st, state.result.stalled_ticks);
  serial::WriteBool(st, state.result.stall_aborted);
  serial::WriteF64(st, state.result.stream_consumed_at);

  // Cluster-level quality state: the recall tracker's canonical
  // partition plus the cluster curve recorded so far. The ground-truth
  // side and the pair denominator are rebuilt from the dataset on
  // resume, so only the predicted partition is persisted.
  std::ostream& cl = builder.AddSection("sim.clusters");
  serial::WriteVec(cl, state.result.cluster_curve.points(),
                   [](std::ostream& o, const CurvePoint& p) {
                     serial::WriteF64(o, p.time);
                     serial::WriteU64(o, p.comparisons);
                     serial::WriteU64(o, p.matches_found);
                   });
  state.tracker->Snapshot(cl);

  algorithm.Snapshot(builder);
}

bool StreamSimulator::RestoreLoopState(const persist::SnapshotReader& reader,
                                       const ErAlgorithm& algorithm,
                                       const Matcher& matcher,
                                       LoopState* state,
                                       std::string* error) const {
  std::istringstream meta;
  if (!reader.Open("sim.meta", &meta, error)) return false;
  std::string alg_name;
  std::string dataset_name;
  uint64_t num_profiles = 0;
  std::string matcher_name;
  uint64_t num_increments = 0;
  uint8_t cost_mode = 0;
  double rate = 0.0;
  double budget = 0.0;
  uint64_t granularity = 0;
  uint64_t stall_limit = 0;
  if (!serial::ReadString(meta, &alg_name) ||
      !serial::ReadString(meta, &dataset_name) ||
      !serial::ReadU64(meta, &num_profiles) ||
      !serial::ReadString(meta, &matcher_name) ||
      !serial::ReadU64(meta, &num_increments) ||
      !serial::ReadU8(meta, &cost_mode) || !serial::ReadF64(meta, &rate) ||
      !serial::ReadF64(meta, &budget) ||
      !serial::ReadU64(meta, &granularity) ||
      !serial::ReadU64(meta, &stall_limit)) {
    SetResumeError(error, "section 'sim.meta' failed to decode");
    return false;
  }
  // Tolerant trailing read: absent means the snapshot was written with
  // the default seed (pre-frontier layout or a default-seeded run).
  uint64_t frontier_seed = SimulatorOptions{}.frontier_seed;
  serial::ReadU64(meta, &frontier_seed);
  if (alg_name != algorithm.name()) {
    SetResumeError(error, "snapshot was taken with algorithm '" + alg_name +
                              "', not '" + algorithm.name() + "'");
    return false;
  }
  if (dataset_name != dataset_->name ||
      num_profiles != dataset_->profiles.size()) {
    SetResumeError(error, "snapshot was taken against dataset '" +
                              dataset_name + "' (" +
                              std::to_string(num_profiles) +
                              " profiles), which does not match");
    return false;
  }
  if (matcher_name != matcher.name()) {
    SetResumeError(error, "snapshot was taken with matcher '" + matcher_name +
                              "', not '" + matcher.name() + "'");
    return false;
  }
  if (num_increments != increments_.size() ||
      cost_mode != static_cast<uint8_t>(options_.cost_mode) ||
      rate != options_.increments_per_second ||
      budget != options_.time_budget_s ||
      granularity != options_.curve_granularity ||
      stall_limit != options_.stall_limit ||
      frontier_seed != options_.frontier_seed) {
    SetResumeError(error,
                   "snapshot simulator options do not match this "
                   "configuration (increments/cost mode/rate/budget/"
                   "granularity/stall limit/frontier seed)");
    return false;
  }

  std::istringstream st;
  if (!reader.Open("sim.state", &st, error)) return false;
  uint32_t fruitless = 0;
  std::vector<uint64_t> credited;
  std::vector<CurvePoint> points;
  LoopState s;
  if (!serial::ReadF64(st, &s.vt) || !serial::ReadU64(st, &s.next_arrival) ||
      !serial::ReadU32(st, &fruitless) ||
      !serial::ReadU64(st, &s.consecutive_stalls) ||
      !serial::ReadBool(st, &s.stream_ended_notified) ||
      !serial::ReadU64(st, &s.executed) || !serial::ReadU64(st, &s.found) ||
      !serial::ReadU64(st, &s.last_recorded) ||
      !serial::ReadVec(st, &credited,
                       [](std::istream& in, uint64_t* key) {
                         return serial::ReadU64(in, key);
                       }) ||
      !serial::ReadVec(st, &points,
                       [](std::istream& in, CurvePoint* p) {
                         return serial::ReadF64(in, &p->time) &&
                                serial::ReadU64(in, &p->comparisons) &&
                                serial::ReadU64(in, &p->matches_found);
                       }) ||
      !serial::ReadU64(st, &s.result.matcher_positives) ||
      !serial::ReadU64(st, &s.result.matcher_true_positives) ||
      !serial::ReadU64(st, &s.result.stalled_ticks) ||
      !serial::ReadBool(st, &s.result.stall_aborted) ||
      !serial::ReadF64(st, &s.result.stream_consumed_at)) {
    SetResumeError(error, "section 'sim.state' failed to decode");
    return false;
  }
  if (s.next_arrival > increments_.size() || s.last_recorded > s.executed ||
      s.found != credited.size() || s.found > s.executed || points.empty()) {
    SetResumeError(error, "section 'sim.state' is internally inconsistent");
    return false;
  }
  s.fruitless_ticks = static_cast<int>(fruitless);
  s.credited.insert(credited.begin(), credited.end());
  for (const CurvePoint& p : points) s.result.curve.Add(p);

  s.tracker = std::make_unique<ClusterRecallTracker>(dataset_->truth);
  if (reader.Has("sim.clusters")) {
    std::istringstream cl;
    if (!reader.Open("sim.clusters", &cl, error)) return false;
    std::vector<CurvePoint> cluster_points;
    if (!serial::ReadVec(cl, &cluster_points,
                         [](std::istream& in, CurvePoint* p) {
                           return serial::ReadF64(in, &p->time) &&
                                  serial::ReadU64(in, &p->comparisons) &&
                                  serial::ReadU64(in, &p->matches_found);
                         })) {
      SetResumeError(error, "section 'sim.clusters' failed to decode");
      return false;
    }
    if (!s.tracker->Restore(cl)) {
      SetResumeError(error, "section 'sim.clusters' failed to decode");
      return false;
    }
    // Curve and cluster curve are recorded in lockstep.
    if (cluster_points.size() != points.size()) {
      SetResumeError(error,
                     "section 'sim.clusters' is internally inconsistent");
      return false;
    }
    for (const CurvePoint& p : cluster_points) s.result.cluster_curve.Add(p);
  } else {
    // v1 snapshot: no cluster state was recorded. The tracker's
    // partition restarts empty, and the cluster curve is padded with
    // zero-match points mirroring the PC curve so the two stay in
    // lockstep (pre-resume cluster recall reports 0).
    for (const CurvePoint& p : points) {
      s.result.cluster_curve.Add({p.time, p.comparisons, 0});
    }
  }

  *state = std::move(s);
  return true;
}

RunResult StreamSimulator::RunLoop(ErAlgorithm& algorithm,
                                   const Matcher& matcher,
                                   LoopState& state) const {
  const CostMeter meter(options_.cost_mode, options_.cost_model);

  // Instrumentation: a caller-supplied registry, or a run-local one
  // when only the snapshot stream was requested.
  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry* registry = options_.metrics;
  if (registry == nullptr && options_.metrics_out != nullptr) {
    registry = &local_registry;
  }
  const SimMetrics m(registry);

  // Checkpointing: a write serializes the algorithm plus this
  // LoopState and never touches either, so the curve is independent of
  // whether (and how often) checkpoints were taken. Failures are
  // non-fatal -- the run outlives a full disk -- but counted and
  // diagnosed.
  persist::CheckpointOptions ckpt_options;
  ckpt_options.dir = options_.checkpoint_dir;
  ckpt_options.every = options_.checkpoint_every;
  ckpt_options.keep = options_.checkpoint_keep;
  ckpt_options.metrics = registry;
  persist::CheckpointManager checkpointer(std::move(ckpt_options));
  if (checkpointer.enabled()) PIER_CHECK(algorithm.SupportsSnapshot());
  const auto write_checkpoint = [&]() {
    persist::SnapshotBuilder builder;
    SnapshotLoopState(builder, algorithm, matcher, state);
    std::string ckpt_error;
    if (checkpointer.Write(state.next_arrival, builder, &ckpt_error)
            .empty()) {
      std::fprintf(stderr, "pier: checkpoint %" PRIu64 " failed: %s\n",
                   static_cast<uint64_t>(state.next_arrival),
                   ckpt_error.c_str());
    }
  };
  // Seed checkpoint before the first increment (resume-from-zero);
  // a resumed run starts past it and writes only forward.
  if (checkpointer.enabled() && state.next_arrival == 0) write_checkpoint();

  // All matching goes through the executor; with execution_threads=1
  // it runs inline. Verdicts come back in emission order, so the
  // accounting below is identical for every thread count.
  const ParallelMatchExecutor executor(&matcher, options_.execution_threads,
                                       registry);
  const ParallelMatchExecutor::ProfileLookup lookup =
      [&algorithm](ProfileId id) -> const EntityProfile& {
    return algorithm.Profile(id);
  };
  // Next metrics-snapshot instant; recomputed from the (possibly
  // restored) clock so resume does not replay old snapshot times.
  double next_snapshot = std::numeric_limits<double>::infinity();
  if (options_.metrics_interval_s > 0.0) {
    next_snapshot = (std::floor(state.vt / options_.metrics_interval_s) + 1) *
                    options_.metrics_interval_s;
  }
  const auto emit_snapshot = [&](double t) {
    if (registry == nullptr || options_.metrics_out == nullptr) return;
    obs::WriteJsonLines(*options_.metrics_out, t, registry->Snapshot());
  };

  RunResult& result = state.result;

  // Arrival schedule: t_i = i / rate (all zero in the static setting).
  const double interarrival =
      options_.IsStatic() ? 0.0 : 1.0 / options_.increments_per_second;

  auto record_point = [&]() {
    if (state.executed - state.last_recorded < options_.curve_granularity &&
        !result.curve.empty()) {
      return;
    }
    result.curve.Add(CurvePoint{state.vt, state.executed, state.found});
    result.cluster_curve.Add(CurvePoint{state.vt, state.executed,
                                        state.tracker->connected_pairs()});
    state.last_recorded = state.executed;
  };

  // Number of increments whose arrival time has passed but which have
  // not been delivered yet (the stream backlog of Figures 7-8).
  const auto backlog = [&]() -> size_t {
    if (state.next_arrival >= increments_.size()) return 0;
    if (options_.IsStatic()) return increments_.size() - state.next_arrival;
    const size_t due =
        interarrival <= 0.0
            ? increments_.size()
            : static_cast<size_t>(state.vt / interarrival) + 1;
    return std::min(due, increments_.size()) - state.next_arrival;
  };
  const auto observe_clock = [&]() {
    if (registry == nullptr) return;
    obs::GaugeSet(m.virtual_time_s, state.vt);
    obs::GaugeSet(m.queue_depth, static_cast<double>(backlog()));
    if (state.vt >= next_snapshot) {
      emit_snapshot(state.vt);
      next_snapshot += options_.metrics_interval_s;
    }
  };

  while (state.vt < options_.time_budget_s) {
    observe_clock();

    // 1. Deliver a due increment if the algorithm accepts it.
    if (state.next_arrival < increments_.size() &&
        state.vt >= interarrival * static_cast<double>(state.next_arrival) &&
        algorithm.ReadyForIncrement()) {
      const Increment inc = increments_[state.next_arrival];
      std::vector<EntityProfile> profiles(
          dataset_->profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
          dataset_->profiles.begin() + static_cast<ptrdiff_t>(inc.end));
      algorithm.OnArrival(interarrival *
                          static_cast<double>(state.next_arrival));
      Stopwatch sw;
      const WorkStats stats = algorithm.OnIncrement(std::move(profiles));
      state.vt += meter.StepCost(stats, sw.ElapsedSeconds());
      ++state.next_arrival;
      if (state.next_arrival == increments_.size()) {
        result.stream_consumed_at = state.vt;
      }
      obs::CounterAdd(m.increments_delivered);
      state.fruitless_ticks = 0;
      state.consecutive_stalls = 0;
      if (checkpointer.enabled() &&
          (checkpointer.Due(state.next_arrival) ||
           state.next_arrival == increments_.size())) {
        write_checkpoint();
      }
      continue;
    }

    // 2. Process the next comparison batch, if any.
    {
      WorkStats gen_stats;
      Stopwatch sw;
      const std::vector<Comparison> batch = algorithm.NextBatch(&gen_stats);
      const double gen_seconds = sw.ElapsedSeconds();
      if (!batch.empty()) {
        const double gen_cost = meter.StepCost(gen_stats, gen_seconds);
        state.vt += gen_cost;
        uint64_t units = 0;
        Stopwatch match_sw;
        const std::vector<MatchVerdict> verdicts =
            executor.Execute(batch, lookup);
        uint64_t batch_matches = 0;
        uint64_t batch_positives = 0;
        for (size_t i = 0; i < batch.size(); ++i) {
          const Comparison& c = batch[i];
          const MatchVerdict& v = verdicts[i];
          units += v.cost_units;
          ++state.executed;
          const bool is_true_match = dataset_->truth.IsMatch(c.x, c.y);
          if (v.is_match) {
            ++batch_positives;
            ++result.matcher_positives;
            if (is_true_match) ++result.matcher_true_positives;
            // The eval-side recall tracker sees the matcher's output
            // (false positives included): ClusterRecall measures what
            // the *served* clusters got right, not what an oracle
            // would serve.
            state.tracker->AddMatch(c.x, c.y);
          }
          if (is_true_match && state.credited.insert(c.Key()).second) {
            ++state.found;
            ++batch_matches;
          }
        }
        const double match_cost =
            meter.MatchCost(units, match_sw.ElapsedSeconds());
        state.vt += match_cost;
        algorithm.OnVerdicts(batch, verdicts, match_cost);
        obs::CounterAdd(m.batches);
        obs::CounterAdd(m.comparisons_executed, batch.size());
        obs::CounterAdd(m.matches_found, batch_matches);
        obs::CounterAdd(m.matcher_positives, batch_positives);
        obs::CounterAdd(m.match_cost_units, units);
        obs::HistogramRecord(m.batch_size, batch.size());
        obs::HistogramRecord(m.batch_gen_ns, SecondsToNs(gen_cost));
        obs::HistogramRecord(m.batch_match_ns, SecondsToNs(match_cost));
        if (match_cost > 0.0) {
          obs::GaugeSet(m.comparisons_per_s,
                        static_cast<double>(batch.size()) / match_cost);
          obs::GaugeSet(m.cost_units_per_s,
                        static_cast<double>(units) / match_cost);
        }
        obs::GaugeSet(m.cluster_recall, state.tracker->Recall());
        record_point();
        state.fruitless_ticks = 0;
        state.consecutive_stalls = 0;
        continue;
      }
      state.vt += meter.StepCost(gen_stats, gen_seconds);
    }

    // 3. No work right now.
    if (state.next_arrival < increments_.size()) {
      const double t_next =
          interarrival * static_cast<double>(state.next_arrival);
      if (!algorithm.ReadyForIncrement() && state.vt >= t_next) {
        // An increment is due but the algorithm refuses it while
        // holding no pending batch (e.g. a windowed baseline between
        // arrivals). That used to be a hard CHECK; it is a legitimate
        // -- if unproductive -- state, so diagnose it instead: charge
        // an idle tick (whose per-call overhead guarantees the clock
        // advances), count it, and give up only after stall_limit
        // consecutive stalls.
        ++result.stalled_ticks;
        obs::CounterAdd(m.stalled_ticks);
        Stopwatch sw;
        const WorkStats stats = algorithm.OnIdleTick();
        state.vt += meter.StepCost(stats, sw.ElapsedSeconds());
        if (++state.consecutive_stalls >= options_.stall_limit) {
          result.stall_aborted = true;
          break;
        }
        continue;
      }
      state.consecutive_stalls = 0;
      // Idle before the next arrival: try a tick, then jump the clock.
      if (state.fruitless_ticks < 2) {
        Stopwatch sw;
        const WorkStats stats = algorithm.OnIdleTick();
        state.vt += meter.StepCost(stats, sw.ElapsedSeconds());
        ++state.fruitless_ticks;
        obs::CounterAdd(m.idle_ticks);
      } else {
        if (state.vt < t_next) state.vt = t_next;
        state.fruitless_ticks = 0;
      }
      continue;
    }

    // 4. Stream fully delivered: notify once, then tick until dry.
    if (!state.stream_ended_notified) {
      Stopwatch sw;
      const WorkStats stats = algorithm.OnStreamEnd();
      state.vt += meter.StepCost(stats, sw.ElapsedSeconds());
      state.stream_ended_notified = true;
      continue;
    }
    if (state.fruitless_ticks < 2) {
      Stopwatch sw;
      const WorkStats stats = algorithm.OnIdleTick();
      state.vt += meter.StepCost(stats, sw.ElapsedSeconds());
      ++state.fruitless_ticks;
      obs::CounterAdd(m.idle_ticks);
      continue;
    }
    break;  // two fruitless ticks after stream end: done
  }

  result.comparisons_executed = state.executed;
  result.matches_found = state.found;
  result.end_time = state.vt;
  // Terminal curve point: only when it adds information. The curve is
  // kept strictly monotone in `comparisons` -- an unconditional append
  // used to duplicate the last point at the same comparison count with
  // a later timestamp, creating a spurious step for
  // MatchesAtComparisons / PC-per-comparison plots.
  if (result.curve.empty() ||
      result.curve.points().back().comparisons != state.executed) {
    result.curve.Add(CurvePoint{state.vt, state.executed, state.found});
    result.cluster_curve.Add(CurvePoint{state.vt, state.executed,
                                        state.tracker->connected_pairs()});
  }
  if (registry != nullptr) {
    obs::GaugeSet(m.virtual_time_s, state.vt);
    obs::GaugeSet(m.queue_depth, static_cast<double>(backlog()));
    emit_snapshot(state.vt);
  }
  return std::move(result);
}

}  // namespace pier
