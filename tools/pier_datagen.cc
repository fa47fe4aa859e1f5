// pier_datagen: export one of the synthetic benchmark datasets (see
// datagen/generators.h) as the CSV long format that pier_cli consumes.
//
//   pier_datagen --dataset=bibliographic|movies|census|dbpedia
//                [--scale=F] [--seed=N]
//                --profiles-out=FILE [--truth-out=FILE]
//
// --scale multiplies the generator's default record counts (0.1 gives
// a quick smoke-sized dataset); --seed overrides the generator seed so
// CI runs are reproducible but distinguishable.
//
// Streaming mode (census only): constant-memory generation for corpora
// larger than RAM -- profiles go straight from the windowed-shuffle
// generator to the CSV writer, truth pairs drain as clusters complete.
//
//   pier_datagen --dataset=census --stream [--records=N] [--window=N]
//                [--seed=N] --profiles-out=FILE [--truth-out=FILE]
//
// The paper-scale nightly produces its 2M-profile corpus with
// --stream --records=2000000 --seed=424242 (see .github/workflows).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "datagen/dataset_io.h"
#include "datagen/generators.h"
#include "flags.h"

namespace {

using pier::tools::Flags;
using pier::tools::Get;
using pier::tools::GetNumber;
using pier::tools::ParseArgs;

int Usage() {
  std::fprintf(stderr,
               "usage: pier_datagen --dataset=bibliographic|movies|census|"
               "dbpedia\n"
               "                    [--scale=F] [--seed=N]\n"
               "                    --profiles-out=FILE [--truth-out=FILE]\n"
               "       pier_datagen --dataset=census --stream [--records=N]\n"
               "                    [--window=N] [--seed=N]\n"
               "                    --profiles-out=FILE [--truth-out=FILE]\n");
  return 2;
}

// Constant-memory census export: generator -> CSV, no Dataset.
int StreamCensus(const Flags& args, const std::string& profiles_path) {
  pier::CensusStreamOptions options;
  options.num_records = GetNumber(args, "records", options.num_records);
  options.shuffle_window = GetNumber(args, "window", options.shuffle_window);
  const uint64_t seed = GetNumber<uint64_t>(args, "seed", 0);
  if (seed != 0) options.seed = seed;

  std::ofstream profiles_out(profiles_path);
  if (!profiles_out) {
    std::fprintf(stderr, "cannot open %s\n", profiles_path.c_str());
    return 1;
  }
  const std::string truth_path = Get(args, "truth-out", "");
  std::ofstream truth_out;
  if (!truth_path.empty()) {
    truth_out.open(truth_path);
    if (!truth_out) {
      std::fprintf(stderr, "cannot open %s\n", truth_path.c_str());
      return 1;
    }
    pier::WriteGroundTruthCsvHeader(truth_out);
  }

  pier::WriteProfilesCsvHeader(profiles_out);
  pier::CensusStreamGenerator generator(options);
  size_t profiles = 0;
  size_t pairs = 0;
  while (auto profile = generator.Next()) {
    pier::AppendProfileCsv(*profile, profiles_out);
    ++profiles;
    if (truth_out.is_open()) {
      for (const auto& [a, b] : generator.TakeCompletedTruth()) {
        pier::AppendGroundTruthPairCsv(a, b, truth_out);
        ++pairs;
      }
    }
  }
  if (truth_out.is_open()) {
    for (const auto& [a, b] : generator.TakeCompletedTruth()) {
      pier::AppendGroundTruthPairCsv(a, b, truth_out);
      ++pairs;
    }
    if (!truth_out.flush()) {
      std::fprintf(stderr, "write failed: %s\n", truth_path.c_str());
      return 1;
    }
  }
  if (!profiles_out.flush()) {
    std::fprintf(stderr, "write failed: %s\n", profiles_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "census (stream): %zu profiles, %zu truth pairs\n",
               profiles, pairs);
  return 0;
}

size_t Scaled(size_t count, double scale) {
  const auto scaled = static_cast<size_t>(static_cast<double>(count) * scale);
  return scaled < 2 ? 2 : scaled;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pier;
  const auto args =
      ParseArgs(argc, argv,
                {"dataset", "profiles-out", "truth-out", "scale", "seed",
                 "stream", "records", "window"});
  const std::string name = Get(args, "dataset", "");
  const std::string profiles_path = Get(args, "profiles-out", "");
  if (name.empty() || profiles_path.empty()) return Usage();
  if (args.count("stream") != 0) {
    if (name != "census") {
      std::fprintf(stderr, "--stream supports --dataset=census only\n");
      return Usage();
    }
    return StreamCensus(args, profiles_path);
  }
  const double scale = GetNumber(args, "scale", 1.0);
  const uint64_t seed = GetNumber<uint64_t>(args, "seed", 0);

  Dataset dataset;
  if (name == "bibliographic") {
    BibliographicOptions options;
    options.source0_count = Scaled(options.source0_count, scale);
    options.source1_count = Scaled(options.source1_count, scale);
    if (seed != 0) options.seed = seed;
    dataset = GenerateBibliographic(options);
  } else if (name == "movies") {
    MoviesOptions options;
    options.source0_count = Scaled(options.source0_count, scale);
    options.source1_count = Scaled(options.source1_count, scale);
    if (seed != 0) options.seed = seed;
    dataset = GenerateMovies(options);
  } else if (name == "census") {
    CensusOptions options;
    options.num_records = Scaled(options.num_records, scale);
    if (seed != 0) options.seed = seed;
    dataset = GenerateCensus(options);
  } else if (name == "dbpedia") {
    DbpediaOptions options;
    options.source0_count = Scaled(options.source0_count, scale);
    options.source1_count = Scaled(options.source1_count, scale);
    if (seed != 0) options.seed = seed;
    dataset = GenerateDbpedia(options);
  } else {
    std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
    return Usage();
  }

  std::ofstream profiles_out(profiles_path);
  if (!profiles_out) {
    std::fprintf(stderr, "cannot open %s\n", profiles_path.c_str());
    return 1;
  }
  WriteProfilesCsv(dataset, profiles_out);
  if (!profiles_out.flush()) {
    std::fprintf(stderr, "write failed: %s\n", profiles_path.c_str());
    return 1;
  }

  const std::string truth_path = Get(args, "truth-out", "");
  if (!truth_path.empty()) {
    std::ofstream truth_out(truth_path);
    if (!truth_out) {
      std::fprintf(stderr, "cannot open %s\n", truth_path.c_str());
      return 1;
    }
    WriteGroundTruthCsv(dataset, truth_out);
    if (!truth_out.flush()) {
      std::fprintf(stderr, "write failed: %s\n", truth_path.c_str());
      return 1;
    }
  }

  std::fprintf(stderr, "%s: %zu profiles, %zu truth pairs\n", name.c_str(),
               dataset.profiles.size(), dataset.truth.size());
  return 0;
}
