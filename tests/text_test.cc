// Tests for src/text: profile tokenization (the schema-agnostic Data
// Reading step). The one-pass Tokenizer::TokenizeProfile is checked
// byte for byte against the two-pass reference in
// tokenizer_reference.h, which also carries the normalization and
// splitting rules the first tests pin.

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/generators.h"
#include "model/token_dictionary.h"
#include "persist/crc32c.h"
#include "text/tokenizer.h"
#include "tokenizer_reference.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace pier {
namespace {

TEST(TokenizerTest, NormalizeLowercasesAndStripsPunctuation) {
  EXPECT_EQ(NormalizeReference("Hello, World!"), "hello  world ");
  EXPECT_EQ(NormalizeReference("A-B_C.D"), "a b c d");
  EXPECT_EQ(NormalizeReference("2023"), "2023");
}

TEST(TokenizerTest, SplitDropsShortTokens) {
  const auto tokens = SplitReference("a bc def g hi");  // min length 2
  EXPECT_EQ(tokens, (std::vector<std::string>{"bc", "def", "hi"}));
}

TEST(TokenizerTest, SplitRespectsMinLengthOption) {
  TokenizerOptions options;
  options.min_token_length = 1;
  const auto tokens = SplitReference("a bc", options);
  EXPECT_EQ(tokens, (std::vector<std::string>{"a", "bc"}));
}

TEST(TokenizerTest, SplitTruncatesLongTokens) {
  TokenizerOptions options;
  options.max_token_length = 4;
  const auto tokens = SplitReference("abcdefgh", options);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "abcd");
}

TEST(TokenizerTest, SplitEmptyAndWhitespaceOnly) {
  EXPECT_TRUE(SplitReference("").empty());
  EXPECT_TRUE(SplitReference("   .,;  ").empty());
}

TEST(TokenizerTest, TokenizeProfileProducesSortedUniqueTokens) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  EntityProfile p(0, 0,
                  {{"title", "deep blue sea"}, {"subtitle", "blue sea"}});
  tokenizer.TokenizeProfile(p, dict);
  ASSERT_EQ(p.tokens().size(), 3u);  // deep, blue, sea deduplicated
  EXPECT_TRUE(std::is_sorted(p.tokens().begin(), p.tokens().end()));
}

TEST(TokenizerTest, TokenizeProfileIgnoresAttributeNames) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  EntityProfile p(0, 0, {{"some_attribute_name", "value"}});
  tokenizer.TokenizeProfile(p, dict);
  EXPECT_EQ(p.tokens().size(), 1u);
  EXPECT_EQ(dict.Lookup("value"), p.tokens()[0]);
  EXPECT_EQ(dict.Lookup("some_attribute_name"), kInvalidTokenId);
}

TEST(TokenizerTest, TokenizeProfileFillsFlatText) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  EntityProfile p(0, 0, {{"a", "Foo Bar"}, {"b", "Baz"}});
  tokenizer.TokenizeProfile(p, dict);
  EXPECT_EQ(p.flat_text(), "foo bar baz");
}

TEST(TokenizerTest, SharedDictionaryAcrossProfiles) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  EntityProfile p(0, 0, {{"a", "common"}});
  EntityProfile q(1, 1, {{"b", "common"}});
  tokenizer.TokenizeProfile(p, dict);
  tokenizer.TokenizeProfile(q, dict);
  ASSERT_EQ(p.tokens().size(), 1u);
  ASSERT_EQ(q.tokens().size(), 1u);
  EXPECT_EQ(p.tokens()[0], q.tokens()[0]);  // same block key
}

TEST(TokenizerTest, EmptyProfile) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  EntityProfile p(0, 0, {});
  tokenizer.TokenizeProfile(p, dict);
  EXPECT_TRUE(p.tokens().empty());
  EXPECT_TRUE(p.flat_text().empty());
}

// ---------------------------------------------------------------------------
// Byte identity of the one-pass tokenizer

TEST(TokenFoldTest, EqualsCLocaleIsalnumTolower) {
  for (int b = 0; b < 256; ++b) {
    const char expected =
        std::isalnum(b) ? static_cast<char>(std::tolower(b)) : '\0';
    EXPECT_EQ(kTokenFold[b], expected) << "byte " << b;
  }
}

// A value mixing every byte value with token runs of the lengths at the
// edges of `options` (min - 1, min, max, max + 1) and empty values.
std::vector<Attribute> EdgeAttributes(Rng& rng,
                                      const TokenizerOptions& options) {
  const auto run = [&](size_t len) {
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      const char* alnum = "abcXYZ0189";
      s.push_back(alnum[rng.UniformInt(0, 9)]);
    }
    return s;
  };
  std::vector<Attribute> attrs;
  const int count = static_cast<int>(rng.UniformInt(0, 4));
  for (int a = 0; a < count; ++a) {
    std::string value;
    const int pieces = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < pieces; ++i) {
      switch (rng.UniformInt(0, 3)) {
        case 0: {  // random bytes over all 256 values
          const size_t len = rng.UniformInt(0, 12);
          for (size_t k = 0; k < len; ++k) {
            value.push_back(static_cast<char>(rng.UniformInt(0, 255)));
          }
          break;
        }
        case 1: {  // a run at a length edge
          const size_t edges[] = {
              options.min_token_length == 0 ? 0 : options.min_token_length - 1,
              options.min_token_length, options.max_token_length,
              options.max_token_length + 1};
          value += run(edges[rng.UniformInt(0, 3)]);
          break;
        }
        case 2:
          value += run(rng.UniformInt(1, 2 * options.max_token_length + 2));
          break;
        default:  // delimiters, including NUL and high bytes
          value.push_back(" .\x00\xff-"[rng.UniformInt(0, 4)]);
          break;
      }
    }
    attrs.push_back({"attr" + std::to_string(a), std::move(value)});
  }
  return attrs;
}

void ExpectSameDictionaries(const TokenDictionary& actual,
                            const TokenDictionary& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (TokenId id = 0; id < expected.size(); ++id) {
    ASSERT_EQ(actual.Spelling(id), expected.Spelling(id)) << "id " << id;
  }
}

class OnePassTokenizerTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(OnePassTokenizerTest, MatchesReference) {
  TokenizerOptions options;
  options.min_token_length = GetParam().first;
  options.max_token_length = GetParam().second;
  const Tokenizer tokenizer(options);
  TokenDictionary dict;
  TokenDictionary reference_dict;
  Rng rng(options.min_token_length * 131 + options.max_token_length);
  for (ProfileId id = 0; id < 3000; ++id) {
    EntityProfile p(id, 0, EdgeAttributes(rng, options));
    EntityProfile q = p;
    tokenizer.TokenizeProfile(p, dict);
    TokenizeProfileReference(q, reference_dict, options);
    ASSERT_EQ(p.flat_text(), q.flat_text()) << "profile " << id;
    ASSERT_TRUE(std::equal(p.tokens().begin(), p.tokens().end(),
                           q.tokens().begin(), q.tokens().end()))
        << "profile " << id;
  }
  // Ids are assigned in the same first-occurrence order.
  ExpectSameDictionaries(dict, reference_dict);
  // Past one-byte tokens the vocabulary outgrows the first table.
  if (options.max_token_length > 1) {
    EXPECT_GT(dict.size(), 1024u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LengthOptions, OnePassTokenizerTest,
    ::testing::Values(std::make_pair(2, 64),  // the defaults
                      std::make_pair(1, 1), std::make_pair(3, 5),
                      std::make_pair(0, 4), std::make_pair(4, 3),
                      std::make_pair(1, 200)),
    [](const auto& info) {
      return "Min" + std::to_string(info.param.first) + "Max" +
             std::to_string(info.param.second);
    });

TEST(OnePassTokenizerEdgeTest, ZeroMaxLengthKeepsEmptyTokensAndFlatText) {
  TokenizerOptions options;
  options.max_token_length = 0;
  const Tokenizer tokenizer(options);
  TokenDictionary dict;
  TokenDictionary reference_dict;
  EntityProfile p(0, 0, {{"a", "ab cd e"}, {"b", "fgh"}});
  EntityProfile q = p;
  tokenizer.TokenizeProfile(p, dict);
  TokenizeProfileReference(q, reference_dict, options);
  EXPECT_EQ(p.flat_text(), q.flat_text());
  EXPECT_EQ(p.flat_text(), "");
  ASSERT_EQ(p.tokens().size(), 1u);
  EXPECT_EQ(dict.Spelling(p.tokens()[0]), "");
  ExpectSameDictionaries(dict, reference_dict);
}

// Pins the bytes of a fixed input's tokenization: the dictionary
// snapshot (spellings in id order) and every profile's flat text and
// token ids. Both values were recorded with the two-pass tokenizer.
TEST(OnePassTokenizerEdgeTest, CensusDictionarySnapshotCrcIsPinned) {
  CensusOptions census;
  census.num_records = 2000;
  census.seed = 11;
  Dataset dataset = GenerateCensus(census);
  const Tokenizer tokenizer;
  TokenDictionary dict;
  uint32_t profiles_crc = 0;
  for (EntityProfile& p : dataset.profiles) {
    tokenizer.TokenizeProfile(p, dict);
    profiles_crc = persist::Crc32c(p.flat_text(), profiles_crc);
    profiles_crc = persist::Crc32c(p.tokens().data(),
                                   p.tokens().size() * sizeof(TokenId),
                                   profiles_crc);
  }
  std::ostringstream out;
  dict.Snapshot(out);
  EXPECT_EQ(dict.size(), 5176u);
  EXPECT_EQ(persist::Crc32c(out.str()), 0xfdf0e07cu);
  EXPECT_EQ(profiles_crc, 0x1f79a9ccu);
}

// ---------------------------------------------------------------------------
// TokenDictionary

TEST(TokenDictionaryTest, InternWithHashAgreesWithInternAcrossGrowth) {
  TokenDictionary plain;
  TokenDictionary hashed;
  std::vector<std::string> tokens;
  for (int i = 0; i < 20000; ++i) tokens.push_back("t" + std::to_string(i));
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      const std::string& t = tokens[i];
      const TokenId id = plain.Intern(t);
      ASSERT_EQ(hashed.Intern(t, HashString(t)), id);
      ASSERT_EQ(id, static_cast<TokenId>(i));
      // Either overload finds what the other interned.
      ASSERT_EQ(plain.Intern(t, HashString(t)), id);
      ASSERT_EQ(hashed.Intern(t), id);
    }
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(hashed.Lookup(tokens[i]), static_cast<TokenId>(i));
    EXPECT_EQ(hashed.Spelling(static_cast<TokenId>(i)), tokens[i]);
  }
  EXPECT_EQ(hashed.Lookup("absent"), kInvalidTokenId);
}

TEST(TokenDictionaryTest, LongSpellingsRoundTrip) {
  // Spellings whose length prefix takes one, two and three bytes, an
  // empty one, and bytes the tokenizer never keeps.
  const std::vector<std::string> spellings = {
      std::string(127, 'a'), std::string(128, 'b'), std::string(300, 'c'),
      std::string(20000, 'd'), "", std::string("\x00\xff\x80", 3), "short"};
  TokenDictionary dict;
  for (size_t i = 0; i < spellings.size(); ++i) {
    ASSERT_EQ(dict.Intern(spellings[i]), static_cast<TokenId>(i));
  }
  std::ostringstream out;
  dict.Snapshot(out);
  TokenDictionary restored;
  std::istringstream in(out.str());
  ASSERT_TRUE(restored.Restore(in));
  for (size_t i = 0; i < spellings.size(); ++i) {
    EXPECT_EQ(dict.Spelling(static_cast<TokenId>(i)), spellings[i]);
    EXPECT_EQ(restored.Spelling(static_cast<TokenId>(i)), spellings[i]);
    EXPECT_EQ(restored.Lookup(spellings[i]), static_cast<TokenId>(i));
  }
}

}  // namespace
}  // namespace pier
