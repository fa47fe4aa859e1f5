// Standalone layer replays for the traced run. The pipeline's Ingest
// tokenizes, blocks and stores each profile in one call, and its
// EmitBatch consults the executed-comparison filter inside; the
// benchmark cannot time those layers from outside, so it repeats their
// work on scratch instances over the same inputs.

#include <sys/resource.h>

#include <utility>

#include "bench.h"
#include "blocking/block_collection.h"
#include "model/profile_store.h"
#include "model/token_dictionary.h"
#include "text/tokenizer.h"
#include "util/counting_bloom_filter.h"
#include "util/scalable_bloom_filter.h"

namespace pierbench {

void ReplayIngestLayers(const pier::PierOptions& options,
                        std::vector<std::vector<pier::EntityProfile>> increments,
                        const std::vector<std::vector<pier::ProfileId>>& deletes,
                        std::vector<std::vector<pier::EntityProfile>> corrections,
                        Tracer* tracer, std::map<std::string, double>* layers) {
  pier::TokenDictionary dictionary;
  pier::ProfileStore store;
  pier::BlockCollection blocks(options.kind, options.blocking);
  const pier::Tokenizer tokenizer(options.tokenizer);
  uint64_t tokens = 0;
  uint64_t block_updates = 0;
  const SpanScope replay(tracer, "replay.ingest", Tracer::kNoParent);

  // Mirrors PierPipeline::Ingest per profile: tokenize, block, store,
  // with each layer's share of an increment in its own span.
  const auto add = [&](std::vector<pier::EntityProfile>& profiles,
                       bool replace) {
    {
      const SpanScope span(tracer, "text.tokenize", replay.id());
      for (auto& p : profiles) {
        tokenizer.TokenizeProfile(p, dictionary);
        tokens += p.tokens().size();
      }
    }
    {
      const SpanScope span(tracer, "blocking.add_profile", replay.id());
      for (const auto& p : profiles) block_updates += blocks.AddProfile(p);
    }
    const SpanScope span(tracer, "model.store_add", replay.id());
    for (auto& p : profiles) {
      if (replace) {
        store.Replace(std::move(p));
      } else {
        store.Add(std::move(p));
      }
    }
  };

  for (size_t i = 0; i < increments.size(); ++i) {
    add(increments[i], /*replace=*/false);
    if (i < deletes.size() && !deletes[i].empty()) {
      const SpanScope span(tracer, "blocking.remove_profile", replay.id());
      for (const pier::ProfileId id : deletes[i]) {
        block_updates += blocks.RemoveProfile(store.Get(id));
        store.Remove(id);
      }
    }
    if (i < corrections.size()) add(corrections[i], /*replace=*/true);
  }

  (*layers)["text.tokens"] = static_cast<double>(tokens);
  (*layers)["blocking.block_updates"] = static_cast<double>(block_updates);
  (*layers)["blocking.blocks"] = static_cast<double>(blocks.NumBlocks());
  (*layers)["blocking.mb"] =
      static_cast<double>(blocks.ApproxMemoryBytes()) / kMiB;
  (*layers)["model.store_mb"] =
      static_cast<double>(store.ApproxMemoryBytes()) / kMiB;
  (*layers)["model.dictionary_mb"] =
      static_cast<double>(dictionary.ApproxMemoryBytes()) / kMiB;
}

void ReplayFilter(const std::vector<uint64_t>& keys, bool counting,
                  Tracer* tracer, std::map<std::string, double>* layers) {
  size_t bytes = 0;
  {
    const SpanScope span(tracer, "util.filter", Tracer::kNoParent);
    if (counting) {
      pier::ScalableCountingBloomFilter filter;
      for (const uint64_t key : keys) (void)filter.TestAndAdd(key);
      bytes = filter.ApproxMemoryBytes();
    } else {
      pier::ScalableBloomFilter filter;
      for (const uint64_t key : keys) (void)filter.TestAndAdd(key);
      bytes = filter.ApproxMemoryBytes();
    }
  }
  (*layers)["util.filter_mb"] = static_cast<double>(bytes) / kMiB;
}

double SelfOf(const std::map<std::string, double>& self, const char* name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second;
}

void AddReplayTimes(const std::map<std::string, double>& self,
                    double ingest_s, std::map<std::string, double>* layers) {
  const double text = SelfOf(self, "text.tokenize");
  const double add = SelfOf(self, "blocking.add_profile");
  const double remove = SelfOf(self, "blocking.remove_profile");
  const double store = SelfOf(self, "model.store_add");
  (*layers)["text.tokenize_s"] = text;
  (*layers)["blocking.add_profile_s"] = add;
  (*layers)["blocking.remove_profile_s"] = remove;
  (*layers)["model.store_add_s"] = store;
  (*layers)["util.filter_s"] = SelfOf(self, "util.filter");
  (*layers)["core.update_s"] = ingest_s - text - add - remove - store;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace pierbench
