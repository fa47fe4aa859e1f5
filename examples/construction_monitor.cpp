// Adaptive building & construction scenario (paper Section 1, the
// ArchIBALD use case [23]): architectural-design components (IFC-like
// records, available upfront) must be matched against products
// observed on the construction site (AutomationML-ish monitoring
// records streaming in from sensors and cameras). A match found early
// lets pre-fabrication react to on-site deviations in time.
//
// This example builds the two heterogeneous sources by hand -- design
// records use IFC-style attributes, monitoring records use completely
// different attribute names -- and drives Clean-Clean PIER over the
// live monitoring stream.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/pier_pipeline.h"
#include "similarity/matcher.h"
#include "similarity/parallel_executor.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

struct Component {
  std::string kind;      // e.g. "wall panel"
  std::string material;  // e.g. "timber frame"
  std::string zone;      // e.g. "level2 axis b3"
};

std::vector<Component> MakeCatalog(pier::Rng& rng, size_t n) {
  static const char* const kKinds[] = {"wall panel", "floor slab",
                                       "roof truss", "facade module",
                                       "stair flight", "column segment"};
  static const char* const kMaterials[] = {"timber frame", "precast concrete",
                                           "steel hybrid", "clt massive"};
  std::vector<Component> catalog;
  for (size_t i = 0; i < n; ++i) {
    Component c;
    c.kind = kKinds[rng.UniformInt(0, 5)];
    c.material = kMaterials[rng.UniformInt(0, 3)];
    c.zone = "level" + std::to_string(rng.UniformInt(1, 4)) + " axis " +
             std::string(1, static_cast<char>('a' + rng.UniformInt(0, 5))) +
             std::to_string(rng.UniformInt(1, 9)) + " part" +
             std::to_string(i);
    catalog.push_back(c);
  }
  return catalog;
}

}  // namespace

int main() {
  pier::Rng rng(7);
  const auto catalog = MakeCatalog(rng, 120);

  pier::PierOptions options;
  options.kind = pier::DatasetKind::kCleanClean;
  options.strategy = pier::PierStrategy::kIPes;
  pier::PierPipeline pipeline(options);
  const pier::JaccardMatcher matcher(0.45);
  const pier::ParallelMatchExecutor executor(&matcher, /*num_threads=*/1);

  // Source 0: the full architectural design, available upfront
  // (IFC-style attribute names).
  std::vector<pier::EntityProfile> design;
  pier::ProfileId next_id = 0;
  for (const auto& c : catalog) {
    design.emplace_back(
        next_id++, 0,
        std::vector<pier::Attribute>{{"ifc_type", c.kind},
                                     {"ifc_material", c.material},
                                     {"ifc_placement", c.zone}});
  }
  pipeline.Ingest(std::move(design));

  // Source 1: monitoring observations dribble in as construction
  // progresses; attribute names come from a different world entirely
  // and values carry sensing noise (here: occasional missing field).
  std::set<pier::ProfileId> linked_parts;
  size_t matches_found = 0;
  size_t observations = 0;
  for (size_t i = 0; i < catalog.size(); i += 10) {
    std::vector<pier::EntityProfile> increment;
    for (size_t j = i; j < std::min(i + 10, catalog.size()); ++j) {
      std::vector<pier::Attribute> attrs = {
          {"detected_object", catalog[j].kind},
          {"site_location", catalog[j].zone}};
      if (rng.Bernoulli(0.7)) {
        attrs.push_back({"surface_estimate", catalog[j].material});
      }
      increment.emplace_back(next_id++, 1, std::move(attrs));
      ++observations;
    }
    pipeline.Ingest(std::move(increment));

    // Spare time until the next sensor batch: match the best pairs
    // and feed the verdicts back to the prioritizer and findK().
    const std::vector<pier::Comparison> batch =
        pipeline.EmitBatch(/*k=*/200);
    const pier::Stopwatch match_timer;
    const std::vector<pier::MatchVerdict> verdicts =
        executor.Execute(batch, pipeline.profiles());
    pipeline.RecordVerdicts(batch, verdicts, match_timer.ElapsedSeconds());
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!verdicts[i].is_match) continue;
      const pier::Comparison& c = batch[i];
      ++matches_found;
      linked_parts.insert(std::min(c.x, c.y));  // design ids come first
      if (matches_found <= 5) {
        const auto& a = pipeline.profiles().Get(c.x);
        std::printf("linked design part #%u to site observation #%u (%s)\n",
                    std::min(c.x, c.y), std::max(c.x, c.y),
                    a.CopyAttributes()[0].value.c_str());
      }
    }
  }

  std::printf("...\n%zu site observations processed, %zu matched pairs, "
              "%zu/%zu design parts linked to the site\n",
              observations, matches_found, linked_parts.size(),
              catalog.size());
  return linked_parts.size() > catalog.size() / 2 ? 0 : 1;
}
