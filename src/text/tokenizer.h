// Schema-agnostic tokenization (the "Data Reading" scrubbing step of
// the framework, Section 3.2): attribute values are lower-cased,
// punctuation is treated as whitespace, and each distinct token of any
// value becomes a blocking key. Attribute *names* never contribute
// tokens -- this is what makes the pipeline schema-agnostic.

#ifndef PIER_TEXT_TOKENIZER_H_
#define PIER_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

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

class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = TokenizerOptions())
      : options_(options) {}

  // Lower-cases and maps non-alphanumeric characters to spaces.
  static std::string Normalize(std::string_view text);

  // Splits normalized text into raw token strings (no interning).
  std::vector<std::string> Split(std::string_view text) const;

  // Fills the profile's tokens (sorted, unique TokenIds over all
  // attribute values) and flat text, interning new tokens into `dict`.
  void TokenizeProfile(EntityProfile& profile, TokenDictionary& dict) const;

 private:
  TokenizerOptions options_;
};

}  // namespace pier

#endif  // PIER_TEXT_TOKENIZER_H_
