// Tests for src/text: normalization, token splitting, and profile
// tokenization (the schema-agnostic Data Reading step).

#include <gtest/gtest.h>

#include "model/token_dictionary.h"
#include "text/tokenizer.h"

namespace pier {
namespace {

TEST(TokenizerTest, NormalizeLowercasesAndStripsPunctuation) {
  EXPECT_EQ(Tokenizer::Normalize("Hello, World!"), "hello  world ");
  EXPECT_EQ(Tokenizer::Normalize("A-B_C.D"), "a b c d");
  EXPECT_EQ(Tokenizer::Normalize("2023"), "2023");
}

TEST(TokenizerTest, SplitDropsShortTokens) {
  Tokenizer tokenizer;  // min length 2
  const auto tokens = tokenizer.Split("a bc def g hi");
  EXPECT_EQ(tokens, (std::vector<std::string>{"bc", "def", "hi"}));
}

TEST(TokenizerTest, SplitRespectsMinLengthOption) {
  TokenizerOptions options;
  options.min_token_length = 1;
  Tokenizer tokenizer(options);
  const auto tokens = tokenizer.Split("a bc");
  EXPECT_EQ(tokens, (std::vector<std::string>{"a", "bc"}));
}

TEST(TokenizerTest, SplitTruncatesLongTokens) {
  TokenizerOptions options;
  options.max_token_length = 4;
  Tokenizer tokenizer(options);
  const auto tokens = tokenizer.Split("abcdefgh");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "abcd");
}

TEST(TokenizerTest, SplitEmptyAndWhitespaceOnly) {
  Tokenizer tokenizer;
  EXPECT_TRUE(tokenizer.Split("").empty());
  EXPECT_TRUE(tokenizer.Split("   .,;  ").empty());
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

}  // namespace
}  // namespace pier
