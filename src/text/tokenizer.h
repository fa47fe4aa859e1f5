// Schema-agnostic tokenization (the "Data Reading" scrubbing step of
// the framework, Section 3.2): attribute values are lower-cased,
// punctuation is treated as whitespace, and each distinct token of any
// value becomes a blocking key. Attribute *names* never contribute
// tokens -- this is what makes the pipeline schema-agnostic.

#ifndef PIER_TEXT_TOKENIZER_H_
#define PIER_TEXT_TOKENIZER_H_

#include <array>
#include <cstddef>

#include "model/entity_profile.h"
#include "model/token_dictionary.h"

namespace pier {

struct TokenizerOptions {
  // Tokens shorter than this are dropped (single characters are almost
  // always noise in web data).
  size_t min_token_length = 2;
  // Tokens longer than this are truncated (guards against pathological
  // values).
  size_t max_token_length = 64;
};

// The tokenizer's byte classes in the C locale: the lower-cased byte
// for an ASCII letter or digit (what std::tolower gives where
// std::isalnum holds), 0 for every other byte, which delimits tokens.
inline constexpr std::array<char, 256> kTokenFold = [] {
  std::array<char, 256> fold{};
  for (int c = '0'; c <= '9'; ++c) fold[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) fold[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) fold[c] = static_cast<char>(c - 'A' + 'a');
  return fold;
}();

class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = TokenizerOptions())
      : options_(options) {}

  // Fills the profile's tokens (sorted, unique TokenIds over all
  // attribute values) and flat text, interning new tokens into `dict`
  // in first-occurrence order. A token is a maximal run of ASCII
  // letters and digits, lower-cased; runs shorter than
  // min_token_length are dropped and longer ones cut to
  // max_token_length. The flat text is the kept tokens joined by
  // single spaces.
  void TokenizeProfile(EntityProfile& profile, TokenDictionary& dict) const;

 private:
  TokenizerOptions options_;
};

}  // namespace pier

#endif  // PIER_TEXT_TOKENIZER_H_
