// Tests for src/datagen: vocabulary determinism, the error model, and
// the four dataset generators (sizes, ground-truth structure,
// reproducibility, and the token-overlap property that makes
// duplicates discoverable by token blocking).

#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "datagen/error_model.h"
#include "datagen/generators.h"
#include "datagen/vocabulary.h"
#include "model/token_dictionary.h"
#include "similarity/string_distance.h"
#include "text/tokenizer.h"
#include "tokenizer_reference.h"
#include "util/rng.h"

namespace pier {
namespace {

TEST(VocabularyTest, WordDeterministicAndDistinct) {
  EXPECT_EQ(Vocabulary::Word(17), Vocabulary::Word(17));
  std::set<std::string> words;
  for (size_t i = 0; i < 5000; ++i) words.insert(Vocabulary::Word(i));
  EXPECT_EQ(words.size(), 5000u);
}

TEST(VocabularyTest, WordsAreLowercaseAlpha) {
  for (size_t i = 0; i < 200; ++i) {
    for (const char c : Vocabulary::Word(i)) {
      EXPECT_TRUE(c >= 'a' && c <= 'z') << Vocabulary::Word(i);
    }
  }
}

TEST(VocabularyTest, CuratedListsNonEmpty) {
  EXPECT_GE(Vocabulary::FirstNames().size(), 50u);
  EXPECT_GE(Vocabulary::LastNames().size(), 50u);
  EXPECT_GE(Vocabulary::Venues().size(), 10u);
  EXPECT_GE(Vocabulary::Genres().size(), 10u);
  EXPECT_GE(Vocabulary::Cities().size(), 20u);
  EXPECT_GE(Vocabulary::Streets().size(), 20u);
  EXPECT_GE(Vocabulary::States().size(), 5u);
}

TEST(ErrorModelTest, TypoChangesWordByOneEdit) {
  const ErrorModel model;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::string word = "example";
    const std::string typo = model.ApplyTypo(word, rng);
    EXPECT_LE(Levenshtein(word, typo), 2u);  // transpose counts as <= 2
  }
}

TEST(ErrorModelTest, TypoLeavesShortWordsAlone) {
  const ErrorModel model;
  Rng rng(5);
  EXPECT_EQ(model.ApplyTypo("a", rng), "a");
  EXPECT_EQ(model.ApplyTypo("", rng), "");
}

TEST(ErrorModelTest, PerturbAttributesKeepsAtLeastOne) {
  ErrorModelOptions options;
  options.attribute_drop_prob = 1.0;  // drop everything
  const ErrorModel model(options);
  Rng rng(1);
  const std::vector<Attribute> attrs = {{"a", "x y"}, {"b", "z"}};
  const auto out = model.PerturbAttributes(attrs, rng);
  EXPECT_GE(out.size(), 1u);
}

TEST(ErrorModelTest, PerturbedValueSharesMostTokens) {
  ErrorModelOptions options;  // defaults: moderate noise
  const ErrorModel model(options);
  Rng rng(7);
  int shared = 0;
  int trials = 100;
  for (int i = 0; i < trials; ++i) {
    const std::string value = "alpha bravo charlie delta echo";
    const std::string noisy = model.PerturbValue(value, rng);
    const auto a = SplitReference(value);
    const auto b = SplitReference(noisy);
    std::set<std::string> sa(a.begin(), a.end());
    int common = 0;
    for (const auto& t : b) {
      if (sa.count(t)) ++common;
    }
    if (common >= 3) ++shared;
  }
  EXPECT_GT(shared, trials * 3 / 4);
}

// Shared checks for any generated dataset.
void CheckDatasetInvariants(const Dataset& d) {
  ASSERT_FALSE(d.profiles.empty());
  // Dense ids in stream order.
  for (size_t i = 0; i < d.profiles.size(); ++i) {
    EXPECT_EQ(d.profiles[i].id, i);
    EXPECT_LT(d.profiles[i].source, 2);
    EXPECT_GT(d.profiles[i].num_attributes(), 0u);
  }
  EXPECT_GT(d.truth.size(), 0u);
  if (d.kind == DatasetKind::kCleanClean) {
    // Every truth pair must be cross-source.
    for (const uint64_t key : d.truth.pairs()) {
      const ProfileId a = static_cast<ProfileId>(key >> 32);
      const ProfileId b = static_cast<ProfileId>(key & 0xffffffffu);
      EXPECT_NE(d.profiles[a].source, d.profiles[b].source);
    }
  }
}

TEST(BibliographicTest, SizesAndKind) {
  BibliographicOptions options;
  options.source0_count = 300;
  options.source1_count = 250;
  const Dataset d = GenerateBibliographic(options);
  EXPECT_EQ(d.kind, DatasetKind::kCleanClean);
  EXPECT_EQ(d.profiles.size(), 550u);
  EXPECT_EQ(d.NumProfiles(0), 300u);
  EXPECT_EQ(d.NumProfiles(1), 250u);
  // overlap_fraction 0.95 of min(300,250).
  EXPECT_EQ(d.truth.size(), static_cast<size_t>(0.95 * 250));
  CheckDatasetInvariants(d);
}

TEST(BibliographicTest, DeterministicForSeed) {
  BibliographicOptions options;
  options.source0_count = 100;
  options.source1_count = 80;
  const Dataset a = GenerateBibliographic(options);
  const Dataset b = GenerateBibliographic(options);
  ASSERT_EQ(a.profiles.size(), b.profiles.size());
  for (size_t i = 0; i < a.profiles.size(); ++i) {
    const std::vector<Attribute> aa = a.profiles[i].CopyAttributes();
    const std::vector<Attribute> ba = b.profiles[i].CopyAttributes();
    ASSERT_EQ(aa.size(), ba.size());
    for (size_t j = 0; j < aa.size(); ++j) {
      EXPECT_EQ(aa[j].value, ba[j].value);
    }
  }
  options.seed = 999;
  const Dataset c = GenerateBibliographic(options);
  bool any_diff = false;
  for (size_t i = 0; i < a.profiles.size() && !any_diff; ++i) {
    any_diff = a.profiles[i].CopyAttributes()[0].value !=
               c.profiles[i].CopyAttributes()[0].value;
  }
  EXPECT_TRUE(any_diff);
}

TEST(BibliographicTest, SourcesUseDifferentSchemas) {
  BibliographicOptions options;
  options.source0_count = 50;
  options.source1_count = 50;
  const Dataset d = GenerateBibliographic(options);
  std::set<std::string> names0;
  std::set<std::string> names1;
  for (const auto& p : d.profiles) {
    p.ForEachAttribute([&](std::string_view name, std::string_view) {
      (p.source == 0 ? names0 : names1).insert(std::string(name));
    });
  }
  for (const auto& n : names0) EXPECT_EQ(names1.count(n), 0u) << n;
}

TEST(BibliographicTest, DuplicatesShareTokens) {
  BibliographicOptions options;
  options.source0_count = 200;
  options.source1_count = 200;
  const Dataset d = GenerateBibliographic(options);
  Tokenizer tokenizer;
  TokenDictionary dict;
  std::vector<EntityProfile> profiles = d.profiles;
  for (auto& p : profiles) tokenizer.TokenizeProfile(p, dict);
  size_t with_overlap = 0;
  for (const uint64_t key : d.truth.pairs()) {
    const ProfileId a = static_cast<ProfileId>(key >> 32);
    const ProfileId b = static_cast<ProfileId>(key & 0xffffffffu);
    if (IntersectionSize(profiles[a].tokens(), profiles[b].tokens()) >= 1) {
      ++with_overlap;
    }
  }
  // Virtually all duplicates must be reachable via token blocking.
  EXPECT_GT(with_overlap, d.truth.size() * 95 / 100);
}

TEST(MoviesTest, SizesAndHeterogeneousSchema) {
  MoviesOptions options;
  options.source0_count = 200;
  options.source1_count = 150;
  const Dataset d = GenerateMovies(options);
  EXPECT_EQ(d.profiles.size(), 350u);
  EXPECT_EQ(d.kind, DatasetKind::kCleanClean);
  EXPECT_EQ(d.truth.size(), static_cast<size_t>(0.9 * 150));
  CheckDatasetInvariants(d);
}

TEST(MoviesTest, LongerTextThanBibliographic) {
  MoviesOptions movies_options;
  movies_options.source0_count = 100;
  movies_options.source1_count = 100;
  BibliographicOptions bib_options;
  bib_options.source0_count = 100;
  bib_options.source1_count = 100;
  const Dataset movies = GenerateMovies(movies_options);
  const Dataset bib = GenerateBibliographic(bib_options);
  auto mean_text = [](const Dataset& d) {
    size_t total = 0;
    for (const auto& p : d.profiles) {
      p.ForEachAttribute([&](std::string_view, std::string_view value) {
        total += value.size();
      });
    }
    return static_cast<double>(total) / static_cast<double>(d.profiles.size());
  };
  EXPECT_GT(mean_text(movies), mean_text(bib));
}

TEST(CensusTest, DirtyWithClusters) {
  CensusOptions options;
  options.num_records = 2000;
  const Dataset d = GenerateCensus(options);
  EXPECT_EQ(d.kind, DatasetKind::kDirty);
  EXPECT_EQ(d.profiles.size(), 2000u);
  // With 50% duplicated entities and geometric clusters, matches are a
  // substantial fraction of records.
  EXPECT_GT(d.truth.size(), 300u);
  CheckDatasetInvariants(d);
}

TEST(CensusTest, ClusterSizesCapped) {
  CensusOptions options;
  options.num_records = 3000;
  options.max_cluster_size = 4;
  const Dataset d = GenerateCensus(options);
  // Reconstruct cluster sizes from the truth graph.
  std::unordered_map<ProfileId, size_t> degree;
  for (const uint64_t key : d.truth.pairs()) {
    ++degree[static_cast<ProfileId>(key >> 32)];
    ++degree[static_cast<ProfileId>(key & 0xffffffffu)];
  }
  for (const auto& [id, deg] : degree) {
    EXPECT_LE(deg, options.max_cluster_size - 1);
  }
}

TEST(CensusTest, ShortRelationalValues) {
  CensusOptions options;
  options.num_records = 500;
  const Dataset d = GenerateCensus(options);
  for (const auto& p : d.profiles) {
    p.ForEachAttribute([&](std::string_view name, std::string_view value) {
      EXPECT_LT(value.size(), 40u) << name;
    });
  }
}

TEST(DbpediaTest, SizesAndRaggedProfiles) {
  DbpediaOptions options;
  options.source0_count = 300;
  options.source1_count = 400;
  const Dataset d = GenerateDbpedia(options);
  EXPECT_EQ(d.profiles.size(), 700u);
  EXPECT_EQ(d.truth.size(), static_cast<size_t>(0.6 * 300));
  CheckDatasetInvariants(d);
  // Profiles vary in attribute count (heterogeneity).
  std::set<size_t> attr_counts;
  for (const auto& p : d.profiles) attr_counts.insert(p.num_attributes());
  EXPECT_GT(attr_counts.size(), 3u);
}

TEST(DbpediaTest, DuplicatesShareRareNameTokens) {
  DbpediaOptions options;
  options.source0_count = 100;
  options.source1_count = 100;
  const Dataset d = GenerateDbpedia(options);
  Tokenizer tokenizer;
  TokenDictionary dict;
  std::vector<EntityProfile> profiles = d.profiles;
  for (auto& p : profiles) tokenizer.TokenizeProfile(p, dict);
  size_t with_overlap = 0;
  for (const uint64_t key : d.truth.pairs()) {
    const ProfileId a = static_cast<ProfileId>(key >> 32);
    const ProfileId b = static_cast<ProfileId>(key & 0xffffffffu);
    if (IntersectionSize(profiles[a].tokens(), profiles[b].tokens()) >= 1) {
      ++with_overlap;
    }
  }
  EXPECT_GT(with_overlap, d.truth.size() * 9 / 10);
}

TEST(DbpediaTest, PowerLawBlockDistribution) {
  DbpediaOptions options;
  options.source0_count = 500;
  options.source1_count = 500;
  const Dataset d = GenerateDbpedia(options);
  Tokenizer tokenizer;
  TokenDictionary dict;
  std::unordered_map<TokenId, size_t> block_sizes;
  for (auto p : d.profiles) {
    tokenizer.TokenizeProfile(p, dict);
    for (const TokenId t : p.tokens()) ++block_sizes[t];
  }
  size_t singletons = 0;
  size_t huge = 0;
  for (const auto& [t, s] : block_sizes) {
    if (s == 1) ++singletons;
    if (s > 100) ++huge;
  }
  // Web-like skew: a long tail of tiny blocks plus a head of huge ones.
  EXPECT_GT(singletons, block_sizes.size() / 3);
  EXPECT_GT(huge, 0u);
}

}  // namespace
}  // namespace pier
