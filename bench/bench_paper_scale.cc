// Paper-scale replay gate: ingest throughput and peak RSS of the full
// pipeline over a census stream at (up to) the paper's 2M-profile
// scale, with checkpointing, so the memory-layout work (token/text
// arenas, posting-list pool, blocked Bloom filter) is measured where
// it matters and cannot silently regress.
//
// The workload is the constant-memory census stream generator
// (datagen/generators.h, CensusStreamGenerator) replayed in fixed
// increments through PierPipeline: each increment is ingested, then
// one EmitBatch(k) is executed through the Jaccard matcher with every
// verdict fed back (RecordVerdicts), so blocking, the
// prioritizer, the executed-comparison filter, and the cluster index
// all carry real state while memory is sampled.
//
// Reported (CSV progress rows on stdout, summary JSON via --json-out):
//   ingest_profiles_per_s  profiles / sum of Ingest() wall time
//   peak_rss_bytes         getrusage(RUSAGE_SELF).ru_maxrss
//   state_bytes.*          the persist.state_bytes gauges after the
//                          final snapshot (real serialized footprint)
//
// Gates (exit 1 outside; 0 disables): with --baseline=BENCH_scale.json
// and a matching profile count, ingest throughput must stay within
// --gate-throughput-regression (default 0.10) below the baseline and
// peak RSS within --gate-rss-regression (default 0.10) above it.
// Baselines from a different profile count are reported but not gated
// (smoke runs vs. the committed 2M nightly numbers).
//
// Checkpointing: --checkpoint-dir + --checkpoint-every=N increments
// write full pipeline snapshots (plus a bench progress section);
// --resume-from restores the newest checkpoint, fast-forwards the
// deterministic generator past the already-delivered increments, and
// continues -- the final summary line is byte-identical to an
// uninterrupted run, which is what the nightly kill-and-resume checks.
//
// Arguments:
//   --profiles=N     stream length (default by PIER_BENCH_SCALE:
//                    tiny 20000, small 100000, paper 2000000)
//   --increment=N    profiles per increment (default 5000)
//   --batch-k=N      comparisons emitted+executed per increment
//                    (default 256)
//   --seed=N         generator seed (default 424242, the nightly seed)
//   --window=N       generator shuffle window (default 8192)
//   --checkpoint-dir=DIR --checkpoint-every=N --resume-from=DIR
//   --json-out=FILE --baseline=FILE
//   --gate-throughput-regression=F --gate-rss-regression=F

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "core/pier_pipeline.h"
#include "datagen/generators.h"
#include "obs/metrics.h"
#include "persist/checkpoint_manager.h"
#include "persist/snapshot.h"
#include "similarity/matcher.h"
#include "similarity/parallel_executor.h"
#include "util/serial.h"
#include "util/stopwatch.h"

namespace {

using namespace pier;

size_t PeakRssBytes() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

// Minimal numeric-field extraction from the committed baseline JSON
// (flat keys, no nesting conflicts for the keys we read).
std::optional<double> JsonNumber(const std::string& text,
                                 const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

struct Args {
  size_t profiles = 0;  // 0 -> scale default
  size_t increment = 5000;
  size_t batch_k = 256;
  uint64_t seed = 424242;
  size_t window = 8192;
  std::string checkpoint_dir;
  size_t checkpoint_every = 50;
  std::string resume_from;
  std::string json_out;
  std::string baseline;
  double gate_throughput = 0.10;
  double gate_rss = 0.10;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--profiles=")) {
      args->profiles = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--increment=")) {
      args->increment = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--batch-k=")) {
      args->batch_k = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--window=")) {
      args->window = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--checkpoint-dir=")) {
      args->checkpoint_dir = v;
    } else if (const char* v = value("--checkpoint-every=")) {
      args->checkpoint_every = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--resume-from=")) {
      args->resume_from = v;
    } else if (const char* v = value("--json-out=")) {
      args->json_out = v;
    } else if (const char* v = value("--baseline=")) {
      args->baseline = v;
    } else if (const char* v = value("--gate-throughput-regression=")) {
      args->gate_throughput = std::strtod(v, nullptr);
    } else if (const char* v = value("--gate-rss-regression=")) {
      args->gate_rss = std::strtod(v, nullptr);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (args->increment == 0 || args->batch_k == 0) {
    std::fprintf(stderr, "--increment and --batch-k must be positive\n");
    return false;
  }
  return true;
}

PierOptions MakeOptions(obs::MetricsRegistry* metrics) {
  PierOptions options;
  options.kind = DatasetKind::kDirty;
  options.strategy = PierStrategy::kIPes;
  options.blocking.max_block_size = 300;  // bench-scale purging
  options.metrics = metrics;
  return options;
}

// Bench progress riding in each checkpoint, so resume continues the
// replay (not just the pipeline) exactly where it stopped.
constexpr char kProgressSection[] = "bench_scale.progress";

struct Progress {
  uint64_t increments_delivered = 0;
  uint64_t profiles_delivered = 0;
  uint64_t matches = 0;
  double ingest_seconds = 0.0;
  double emit_seconds = 0.0;
};

void WriteProgress(persist::SnapshotBuilder& builder, const Progress& p) {
  std::ostream& out = builder.AddSection(kProgressSection);
  serial::WriteU64(out, p.increments_delivered);
  serial::WriteU64(out, p.profiles_delivered);
  serial::WriteU64(out, p.matches);
  serial::WriteF64(out, p.ingest_seconds);
  serial::WriteF64(out, p.emit_seconds);
}

bool ReadProgress(const persist::SnapshotReader& reader, Progress* p,
                  std::string* error) {
  std::istringstream in;
  if (!reader.Open(kProgressSection, &in, error)) return false;
  if (!serial::ReadU64(in, &p->increments_delivered) ||
      !serial::ReadU64(in, &p->profiles_delivered) ||
      !serial::ReadU64(in, &p->matches) ||
      !serial::ReadF64(in, &p->ingest_seconds) ||
      !serial::ReadF64(in, &p->emit_seconds)) {
    *error = "truncated " + std::string(kProgressSection);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const bool paper = bench::PaperScale();
  const bool tiny = bench::TinyScale();
  if (args.profiles == 0) {
    args.profiles = paper ? 2000000 : tiny ? 20000 : 100000;
  }

  CensusStreamOptions stream_options;
  stream_options.num_records = args.profiles;
  stream_options.shuffle_window = args.window;
  stream_options.seed = args.seed;
  CensusStreamGenerator generator(stream_options);

  obs::MetricsRegistry metrics;
  PierPipeline pipeline(MakeOptions(&metrics));
  JaccardMatcher matcher(0.35);
  const ParallelMatchExecutor executor(&matcher, /*num_threads=*/1);

  Progress progress;
  if (!args.resume_from.empty()) {
    const auto latest = persist::CheckpointManager::FindLatest(args.resume_from);
    if (!latest) {
      std::fprintf(stderr, "no checkpoint found in %s\n",
                   args.resume_from.c_str());
      return 1;
    }
    std::ifstream in(*latest, std::ios::binary);
    persist::SnapshotReader reader;
    std::string error;
    if (!in || !reader.Parse(in, &error)) {
      std::fprintf(stderr, "cannot parse %s: %s\n", latest->c_str(),
                   error.c_str());
      return 1;
    }
    if (!ReadProgress(reader, &progress, &error) ||
        !pipeline.Restore(reader, &error)) {
      std::fprintf(stderr, "cannot restore %s: %s\n", latest->c_str(),
                   error.c_str());
      return 1;
    }
    // Fast-forward the deterministic stream past the delivered part.
    for (uint64_t i = 0; i < progress.profiles_delivered; ++i) {
      if (!generator.Next()) {
        std::fprintf(stderr, "checkpoint is ahead of the stream\n");
        return 1;
      }
    }
    (void)generator.TakeCompletedTruth();
    std::fprintf(stderr, "resumed from %s at increment %llu\n",
                 latest->c_str(),
                 static_cast<unsigned long long>(progress.increments_delivered));
  }

  persist::CheckpointOptions ckpt_options;
  ckpt_options.dir = args.checkpoint_dir;
  ckpt_options.every = args.checkpoint_every;
  ckpt_options.metrics = &metrics;
  persist::CheckpointManager checkpoints(ckpt_options);

  const auto checkpoint_now = [&]() -> bool {
    persist::SnapshotBuilder builder;
    WriteProgress(builder, progress);
    pipeline.Snapshot(builder);
    std::string error;
    if (checkpoints.Write(progress.increments_delivered, builder, &error)
            .empty()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", error.c_str());
      return false;
    }
    return true;
  };

  std::printf("increment,profiles,ingest_s,emit_s,rss_bytes\n");
  const size_t progress_stride =
      std::max<size_t>(1, args.profiles / args.increment / 32);

  std::vector<EntityProfile> batch;
  batch.reserve(args.increment);
  bool stream_done = false;
  while (!stream_done) {
    batch.clear();
    while (batch.size() < args.increment) {
      auto profile = generator.Next();
      if (!profile) {
        stream_done = true;
        break;
      }
      batch.push_back(std::move(*profile));
    }
    (void)generator.TakeCompletedTruth();
    if (batch.empty()) break;

    const size_t delivered = batch.size();
    Stopwatch ingest_sw;
    pipeline.Ingest(std::move(batch));
    progress.ingest_seconds += ingest_sw.ElapsedSeconds();
    progress.profiles_delivered += delivered;
    ++progress.increments_delivered;

    Stopwatch emit_sw;
    const std::vector<Comparison> emitted = pipeline.EmitBatch(args.batch_k);
    const Stopwatch match_sw;
    const std::vector<MatchVerdict> verdicts =
        executor.Execute(emitted, pipeline.profiles());
    pipeline.RecordVerdicts(emitted, verdicts, match_sw.ElapsedSeconds());
    for (const MatchVerdict& v : verdicts) progress.matches += v.is_match;
    progress.emit_seconds += emit_sw.ElapsedSeconds();

    if (checkpoints.enabled() &&
        checkpoints.Due(progress.increments_delivered)) {
      if (!checkpoint_now()) return 1;
    }
    if (progress.increments_delivered % progress_stride == 0) {
      std::printf("%llu,%llu,%.3f,%.3f,%zu\n",
                  static_cast<unsigned long long>(
                      progress.increments_delivered),
                  static_cast<unsigned long long>(
                      progress.profiles_delivered),
                  progress.ingest_seconds, progress.emit_seconds,
                  PeakRssBytes());
    }
  }

  // Peak RSS is sampled at end-of-replay, before the final snapshot:
  // the snapshot builder's in-memory sections would otherwise dominate
  // the high-water mark and mask what the pipeline layout itself
  // costs. (Mid-run checkpoints, when enabled, still count.)
  const size_t peak_rss = PeakRssBytes();

  // Final checkpoint (kill-and-resume: the last increment is always
  // durable) and state-bytes refresh via a full snapshot.
  persist::SnapshotBuilder final_snapshot;
  WriteProgress(final_snapshot, progress);
  pipeline.Snapshot(final_snapshot);
  if (checkpoints.enabled()) {
    std::string error;
    if (checkpoints.Write(progress.increments_delivered + 1, final_snapshot,
                          &error)
            .empty()) {
      std::fprintf(stderr, "final checkpoint failed: %s\n", error.c_str());
      return 1;
    }
  }

  const double throughput =
      progress.ingest_seconds > 0.0
          ? static_cast<double>(progress.profiles_delivered) /
                progress.ingest_seconds
          : 0.0;
  const auto gauge = [&](const char* name) -> double {
    return metrics.GetGauge(name)->Value();
  };

  // Deterministic replay summary: identical for resumed and
  // uninterrupted runs (the nightly kill-and-resume diffs this line).
  std::printf("final,profiles,%llu,emitted,%llu,matches,%llu\n",
              static_cast<unsigned long long>(progress.profiles_delivered),
              static_cast<unsigned long long>(pipeline.comparisons_emitted()),
              static_cast<unsigned long long>(progress.matches));

  if (!args.json_out.empty()) {
    std::ofstream out(args.json_out);
    out << "{\n"
        << "  \"bench\": \"bench_paper_scale\",\n"
        << "  \"scale\": \"" << (paper ? "paper" : tiny ? "tiny" : "small")
        << "\",\n"
        << "  \"profiles\": " << progress.profiles_delivered << ",\n"
        << "  \"increment\": " << args.increment << ",\n"
        << "  \"batch_k\": " << args.batch_k << ",\n"
        << "  \"seed\": " << args.seed << ",\n"
        << "  \"ingest_seconds\": " << progress.ingest_seconds << ",\n"
        << "  \"ingest_profiles_per_s\": " << throughput << ",\n"
        << "  \"emit_seconds\": " << progress.emit_seconds << ",\n"
        << "  \"comparisons_emitted\": " << pipeline.comparisons_emitted()
        << ",\n"
        << "  \"matches\": " << progress.matches << ",\n"
        << "  \"peak_rss_bytes\": " << peak_rss << ",\n"
        << "  \"state_bytes_profiles\": "
        << static_cast<uint64_t>(gauge("persist.state_bytes.profiles"))
        << ",\n"
        << "  \"state_bytes_blocks\": "
        << static_cast<uint64_t>(gauge("persist.state_bytes.blocks")) << ",\n"
        << "  \"state_bytes_dictionary\": "
        << static_cast<uint64_t>(gauge("persist.state_bytes.dictionary"))
        << ",\n"
        << "  \"state_bytes_filter\": "
        << static_cast<uint64_t>(gauge("persist.state_bytes.filter")) << ",\n"
        << "  \"state_bytes_clusters\": "
        << static_cast<uint64_t>(gauge("persist.state_bytes.clusters"))
        << ",\n"
        << "  \"snapshot_payload_bytes\": " << final_snapshot.payload_bytes()
        << "\n"
        << "}\n";
  }

  std::fprintf(stderr,
               "scale: %llu profiles, ingest %.1f profiles/s (%.1fs), "
               "emit+match %.1fs, peak RSS %.1f MB\n",
               static_cast<unsigned long long>(progress.profiles_delivered),
               throughput, progress.ingest_seconds, progress.emit_seconds,
               static_cast<double>(peak_rss) / (1024.0 * 1024.0));

  // Baseline regression gates.
  if (!args.baseline.empty()) {
    std::ifstream in(args.baseline);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string baseline = text.str();
    const auto base_profiles = JsonNumber(baseline, "profiles");
    const auto base_throughput = JsonNumber(baseline, "ingest_profiles_per_s");
    const auto base_rss = JsonNumber(baseline, "peak_rss_bytes");
    if (!in.good() && baseline.empty()) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n",
                   args.baseline.c_str());
      return 1;
    }
    if (!base_profiles || !base_throughput || !base_rss) {
      std::fprintf(stderr, "FAIL: baseline %s is missing required keys\n",
                   args.baseline.c_str());
      return 1;
    }
    if (static_cast<uint64_t>(*base_profiles) !=
        progress.profiles_delivered) {
      std::fprintf(stderr,
                   "gate: baseline is for %.0f profiles, ran %llu -- "
                   "reporting only, no gate\n",
                   *base_profiles,
                   static_cast<unsigned long long>(
                       progress.profiles_delivered));
      return 0;
    }
    bool failed = false;
    std::fprintf(stderr,
                 "gate: throughput %.1f vs baseline %.1f (-%.0f%% allowed), "
                 "rss %.1f MB vs baseline %.1f MB (+%.0f%% allowed)\n",
                 throughput, *base_throughput, args.gate_throughput * 100.0,
                 static_cast<double>(peak_rss) / (1024.0 * 1024.0),
                 *base_rss / (1024.0 * 1024.0), args.gate_rss * 100.0);
    if (args.gate_throughput > 0.0 &&
        throughput < *base_throughput * (1.0 - args.gate_throughput)) {
      std::fprintf(stderr, "FAIL: ingest throughput regressed beyond gate\n");
      failed = true;
    }
    if (args.gate_rss > 0.0 &&
        static_cast<double>(peak_rss) > *base_rss * (1.0 + args.gate_rss)) {
      std::fprintf(stderr, "FAIL: peak RSS regressed beyond gate\n");
      failed = true;
    }
    if (failed) return 1;
    std::fprintf(stderr, "OK\n");
  }
  return 0;
}
