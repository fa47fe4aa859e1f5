// Shared types of the benchmark's workloads (see README.md): what one
// repetition of a workload reports, and the entry points main.cc
// dispatches to.

#ifndef PIERBENCH_BENCH_H_
#define PIERBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pier_pipeline.h"
#include "model/entity_profile.h"
#include "trace.h"

namespace pierbench {

constexpr double kMiB = 1024.0 * 1024.0;

// One repetition: set up from the seed, run the timed phase, check the
// outputs. Latency series hold raw samples; main.cc pools them over the
// repetitions of a run before taking percentiles.
struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double pc = 0.0;
  double pc_auc = 0.0;
  double pc_half_s = 0.0;
  std::vector<double> match_latency_ms;
  std::vector<double> query_ns;
  std::vector<double> write_ms;
  std::vector<double> ingest_call_ms;

  // Closed loops: digest of the (x, y, verdict) stream.
  bool has_digest = false;
  uint64_t digest = 0;

  // Operations attempted (write calls and correctness checks) and how
  // many of them failed; `failures` says which.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  // Per-layer metrics, filled by traced repetitions only.
  std::map<std::string, double> layers;
  // Workload-specific figures that are not metrics of every workload
  // (printed in the detail line).
  std::map<std::string, double> detail;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// `tracer` is null for untraced repetitions; traced ones record their
// spans there and fill RepResult::layers.
RepResult RunCensusStream(uint64_t seed, Tracer* tracer);
RepResult RunDbpediaEd(uint64_t seed, Tracer* tracer);
RepResult RunRealtimeMutable(uint64_t seed, Tracer* tracer);

// Standalone replay of the text, blocking and model layers over the
// increments a workload delivered (profiles as generated, not yet
// tokenized), under one root span with a child span per layer and
// increment. Fills the text.*, blocking.* and model.* sizes in
// `layers`. `deletes[i]` / `corrections[i]` are applied after
// increment i (realtime-mutable; empty for the closed loops).
void ReplayIngestLayers(const pier::PierOptions& options,
                        std::vector<std::vector<pier::EntityProfile>> increments,
                        const std::vector<std::vector<pier::ProfileId>>& deletes,
                        std::vector<std::vector<pier::EntityProfile>> corrections,
                        Tracer* tracer, std::map<std::string, double>* layers);

// Replays executed pair keys through a fresh executed-comparison
// filter of the kind the pipeline uses (append-only scalable Bloom, or
// the counting variant for mutable streams). Fills util.*.
void ReplayFilter(const std::vector<uint64_t>& keys, bool counting,
                  Tracer* tracer, std::map<std::string, double>* layers);

// Reads the replay spans' self times into text.tokenize_s,
// blocking.add_profile_s, blocking.remove_profile_s,
// model.store_add_s and util.filter_s, and derives core.update_s:
// `ingest_s` (the time inside the pipeline's ingest path) minus the
// replayed text, blocking and model work, which leaves the
// prioritizer update, ghosting and weighting.
void AddReplayTimes(const std::map<std::string, double>& self,
                    double ingest_s, std::map<std::string, double>* layers);

// Self seconds of span `name` in a Tracer::SelfSeconds map (0 if absent).
double SelfOf(const std::map<std::string, double>& self, const char* name);

// Process CPU seconds (user + system, all threads) so far.
double ProcessCpuSeconds();

}  // namespace pierbench

#endif  // PIERBENCH_BENCH_H_
