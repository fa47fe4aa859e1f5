// pier's benchmark binary (see README.md). Runs one workload for at
// least --seconds, as repeated fixed-size repetitions, and prints:
//   a detail line  {"detail": {...}}  per-repetition values, sample
//                  counts, workload-specific figures, failures;
//   a result line  {"correct", "attempted", "failed", "metrics"} with
//                  the end-to-end metrics (--trace 0) or the per-layer
//                  metrics of the traced repetitions (--trace 1).
// Exit status 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments.
//
//   pierbench --workload census-stream|dbpedia-ed|realtime-mutable
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "stats.h"
#include "trace.h"

namespace pierbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must list exactly the end_to_end / per_layer names of BENCHMARK.json
// (run.py checks the printed set against it).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"pc", "ratio"},
    {"pc_auc", "ratio"},
    {"pc_half_s", "s"},
    {"peak_rss_mb", "MB"},
    {"match_latency_ms_p50", "ms"},
    {"match_latency_ms_p99", "ms"},
    {"query_ns_p50", "ns"},
    {"query_ns_p99", "ns"},
    {"write_ms_p50", "ms"},
};

constexpr Metric kPerLayer[] = {
    {"text.tokenize_s", "s"},
    {"text.tokens", "count"},
    {"blocking.add_profile_s", "s"},
    {"blocking.block_updates", "count"},
    {"blocking.blocks", "count"},
    {"blocking.mb", "MB"},
    {"model.store_add_s", "s"},
    {"model.store_mb", "MB"},
    {"model.dictionary_mb", "MB"},
    {"core.ingest_s", "s"},
    {"core.update_s", "s"},
    {"core.emit_s", "s"},
    {"core.emitted", "count"},
    {"core.suppressed", "count"},
    {"core.emit_useful_ratio", "ratio"},
    {"util.filter_s", "s"},
    {"util.filter_mb", "MB"},
    {"similarity.verdict_s", "s"},
    {"similarity.comparisons", "count"},
    {"similarity.match_yield", "ratio"},
    {"similarity.true_match_yield", "ratio"},
    {"serve.record_s", "s"},
    {"serve.merges", "count"},
    {"serve.mb", "MB"},
    {"serve.queries", "count"},
    {"stream.ingest_call_ms_p50", "ms"},
    {"stream.backpressure_waits", "count"},
    {"stream.drain_s", "s"},
    {"host.cpu_s", "s"},
    {"host.cpu_per_wall", "ratio"},
    {"trace.run_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.unattributed_share", "ratio"},
};

// Repetitions per run: at least kMinReps (each kind, when traced), and
// no new one once --seconds have passed. Past kHardStopSeconds no new
// repetition starts at all, so a very slow host still ends the run.
constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 64;
constexpr double kHardStopSeconds = 120.0;

using RunFn = RepResult (*)(uint64_t, Tracer*);

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

bool ParseUnsigned(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    uint64_t number = 0;
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    ++i;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      args->seed = number;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number > 0) {
      args->seconds = static_cast<double>(number);
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      args->trace = static_cast<int>(number);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "bad argument: %s %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (args->workload.empty() || args->seconds <= 0.0 || args->trace < 0) {
    std::fprintf(stderr,
                 "usage: pierbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return false;
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::vector<double> Pool(const std::vector<RepResult>& reps,
                         std::vector<double> RepResult::*series) {
  std::vector<double> pooled;
  for (const RepResult& r : reps) {
    pooled.insert(pooled.end(), (r.*series).begin(), (r.*series).end());
  }
  return pooled;
}

std::vector<double> Each(const std::vector<RepResult>& reps,
                         double RepResult::*field) {
  std::vector<double> values;
  for (const RepResult& r : reps) values.push_back(r.*field);
  return values;
}

void PrintList(const char* key, const std::vector<double>& values,
               bool* first) {
  std::printf("%s\"%s\":[", *first ? "" : ",", key);
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ",", values[i]);
  }
  std::printf("]");
  *first = false;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const std::map<std::string, RunFn> workloads = {
      {"census-stream", RunCensusStream},
      {"dbpedia-ed", RunDbpediaEd},
      {"realtime-mutable", RunRealtimeMutable},
  };
  const auto found = workloads.find(args.workload);
  if (found == workloads.end()) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const bool traced_run = args.trace == 1;
  if (traced_run && !args.trace_out.empty()) {
    std::remove(args.trace_out.c_str());
  }

  // ---- repetitions ----
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  double peak_rss_mb = 0.0;
  const int64_t start = NowNs();
  for (size_t i = 0; i < kMaxReps; ++i) {
    // Traced runs alternate untraced and traced repetitions, so both
    // see the same machine conditions.
    const bool trace_this = traced_run && i % 2 == 1;
    Tracer tracer;
    RepResult rep = found->second(args.seed, trace_this ? &tracer : nullptr);
    std::fprintf(stderr, "rep %zu%s: setup %.3fs run %.3fs pc %.4f\n", i,
                 trace_this ? " (traced)" : "", rep.setup_s, rep.run_s,
                 rep.pc);
    if (trace_this && !args.trace_out.empty()) {
      rep.Check(tracer.WriteJsonLines(args.trace_out, "rep" + std::to_string(i)),
                "spans written");
    }
    // Peak RSS of one repetition in a fresh process: later repetitions
    // reuse (and fragment) the heap the first one left behind.
    if (i == 0) peak_rss_mb = PeakRssMb();
    (trace_this ? traced : plain).push_back(std::move(rep));
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    const bool enough = plain.size() >= kMinReps &&
                        (!traced_run || traced.size() >= kMinReps);
    if ((enough && elapsed >= args.seconds) || elapsed >= kHardStopSeconds) {
      break;
    }
  }

  // ---- cross-repetition checks ----
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<const RepResult*> all;
  for (const auto& r : plain) all.push_back(&r);
  for (const auto& r : traced) all.push_back(&r);
  for (const RepResult* r : all) {
    attempted += r->attempted;
    failed += r->failed;
    failures.insert(failures.end(), r->failures.begin(), r->failures.end());
  }
  if (all.front()->has_digest) {
    // Closed loops: the same seed gives the same verdict stream in every
    // repetition, traced or not.
    bool same = true;
    for (const RepResult* r : all) {
      same = same && r->digest == all.front()->digest &&
             r->pc == all.front()->pc && r->pc_auc == all.front()->pc_auc;
    }
    ++attempted;
    if (!same) {
      ++failed;
      failures.push_back("verdict digest, pc and pc_auc repeat");
    }
  }

  // ---- metrics ----
  std::map<std::string, double> metrics;
  std::map<std::string, double> detail;
  const auto require = [&](const char* name, std::optional<double> value) {
    ++attempted;
    if (!value) {
      ++failed;
      failures.push_back(std::string(name) + ": sample too small for its tail");
      return 0.0;
    }
    return *value;
  };
  // A latency percentile is taken over each repetition's raw samples,
  // and every repetition must support it. The run reports the mean over
  // the repetitions: on a shared host a repetition runs at one of a few
  // speeds (whichever vCPU it lands on), and a median over a dozen such
  // values jumps between them where a mean moves smoothly.
  const auto percentile = [&](const char* name,
                              std::vector<double> RepResult::*series,
                              double q) {
    double sum = 0.0;
    for (const RepResult& r : plain) {
      sum += require(name, Percentile(r.*series, q));
    }
    return sum / static_cast<double>(plain.size());
  };
  const auto describe = [&](const char* name,
                            std::vector<double> RepResult::*series) {
    size_t fewest = SIZE_MAX;
    for (const RepResult& r : plain) fewest = std::min(fewest, (r.*series).size());
    detail[std::string("samples_per_rep_min.") + name] =
        static_cast<double>(fewest);
    detail[std::string("highest_supported_q.") + name] =
        HighestSupportedQuantile(fewest);
  };
  const std::vector<RepResult>& measured = traced_run ? traced : plain;
  if (!traced_run) {
    metrics["setup_s"] = Median(Each(plain, &RepResult::setup_s));
    metrics["run_s"] = Median(Each(plain, &RepResult::run_s));
    metrics["pc"] = Median(Each(plain, &RepResult::pc));
    metrics["pc_auc"] = Median(Each(plain, &RepResult::pc_auc));
    metrics["pc_half_s"] = Median(Each(plain, &RepResult::pc_half_s));
    metrics["peak_rss_mb"] = peak_rss_mb;
    metrics["match_latency_ms_p50"] = percentile(
        "match_latency_ms_p50", &RepResult::match_latency_ms, 0.5);
    metrics["match_latency_ms_p99"] = percentile(
        "match_latency_ms_p99", &RepResult::match_latency_ms, 0.99);
    metrics["query_ns_p50"] =
        percentile("query_ns_p50", &RepResult::query_ns, 0.5);
    metrics["query_ns_p99"] =
        percentile("query_ns_p99", &RepResult::query_ns, 0.99);
    metrics["write_ms_p50"] =
        percentile("write_ms_p50", &RepResult::write_ms, 0.5);
    describe("match_latency", &RepResult::match_latency_ms);
    describe("query", &RepResult::query_ns);
    describe("write", &RepResult::write_ms);
    // The write tail needs the samples of several repetitions.
    const std::optional<double> write_p99 =
        Percentile(Pool(plain, &RepResult::write_ms), 0.99);
    if (write_p99) detail["write_ms_p99_pooled"] = *write_p99;
  } else {
    std::map<std::string, std::vector<double>> per_layer;
    for (const RepResult& r : traced) {
      for (const auto& [name, value] : r.layers) per_layer[name].push_back(value);
    }
    for (const auto& [name, values] : per_layer) metrics[name] = Median(values);
    const double emitted = metrics["core.emitted"];
    const double suppressed = metrics["core.suppressed"];
    metrics["core.emit_useful_ratio"] =
        emitted + suppressed > 0 ? emitted / (emitted + suppressed) : 0.0;
    metrics["stream.ingest_call_ms_p50"] =
        require("stream.ingest_call_ms_p50",
                Percentile(Pool(traced, &RepResult::ingest_call_ms), 0.5));
    const double traced_run_s = Median(Each(traced, &RepResult::run_s));
    metrics["trace.run_s"] = traced_run_s;
    metrics["trace.overhead_s"] =
        traced_run_s - Median(Each(plain, &RepResult::run_s));
  }
  std::map<std::string, std::vector<double>> extra;
  for (const RepResult& r : measured) {
    for (const auto& [name, value] : r.detail) extra[name].push_back(value);
  }
  for (const auto& [name, values] : extra) detail[name] = Median(values);

  // ---- output ----
  std::printf("{\"detail\":{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"trace\":%d,\"reps\":%zu,\"traced_reps\":%zu",
              args.workload.c_str(), args.seed, args.trace, plain.size(),
              traced.size());
  if (all.front()->has_digest) {
    std::printf(",\"verdict_digest\":\"%016" PRIx64 "\"", all.front()->digest);
  }
  std::printf(",\"per_rep\":{");
  bool first = true;
  PrintList("run_s", Each(plain, &RepResult::run_s), &first);
  PrintList("setup_s", Each(plain, &RepResult::setup_s), &first);
  PrintList("pc_half_s", Each(plain, &RepResult::pc_half_s), &first);
  if (!traced_run) {
    const auto per_rep_p50 = [&](std::vector<double> RepResult::*series) {
      std::vector<double> values;
      for (const RepResult& r : plain) {
        values.push_back(Percentile(r.*series, 0.5).value_or(0.0));
      }
      return values;
    };
    PrintList("match_latency_ms_p50", per_rep_p50(&RepResult::match_latency_ms),
              &first);
    PrintList("query_ns_p50", per_rep_p50(&RepResult::query_ns), &first);
  }
  if (traced_run) PrintList("traced_run_s", Each(traced, &RepResult::run_s), &first);
  std::printf("},\"values\":{");
  first = true;
  for (const auto& [name, value] : detail) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  // Layer figures outside the per-layer metric list.
  const auto listed = [&](const std::string& name) {
    for (const Metric& m : kPerLayer) {
      if (name == m.name) return true;
    }
    return false;
  };
  for (const auto& [name, value] : metrics) {
    if (traced_run && !listed(name)) {
      std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
      first = false;
    }
  }
  std::printf("},\"failures\":[");
  for (size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",", failures[i].c_str());
    std::fprintf(stderr, "FAILED: %s\n", failures[i].c_str());
  }
  std::printf("]}}\n");

  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{",
              failed == 0 ? "true" : "false", attempted, failed);
  first = true;
  for (const Metric& m : traced_run ? std::vector<Metric>(std::begin(kPerLayer),
                                                          std::end(kPerLayer))
                                    : std::vector<Metric>(std::begin(kEndToEnd),
                                                          std::end(kEndToEnd))) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                m.name, metrics[m.name], m.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pierbench

int main(int argc, char** argv) { return pierbench::Main(argc, argv); }
