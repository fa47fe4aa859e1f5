// Test oracle for the tokenizer (text/tokenizer.h): the two-pass
// formulation -- normalize a value with std::isalnum/std::tolower
// (punctuation becomes a space), then split on spaces -- that the
// one-pass Tokenizer::TokenizeProfile must reproduce byte for byte,
// shared by the tokenizer tests and the generator tests.

#ifndef PIER_TESTS_TOKENIZER_REFERENCE_H_
#define PIER_TESTS_TOKENIZER_REFERENCE_H_

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "model/entity_profile.h"
#include "model/token_dictionary.h"
#include "text/tokenizer.h"

namespace pier {

// Lower-cases and maps non-alphanumeric characters to spaces.
inline std::string NormalizeReference(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto uc = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(uc) ? static_cast<char>(std::tolower(uc))
                                   : ' ');
  }
  return out;
}

// Splits `text` into its tokens in order (no interning).
inline std::vector<std::string> SplitReference(
    std::string_view text, const TokenizerOptions& options = {}) {
  std::vector<std::string> tokens;
  const std::string normalized = NormalizeReference(text);
  size_t i = 0;
  const size_t n = normalized.size();
  while (i < n) {
    while (i < n && normalized[i] == ' ') ++i;
    size_t j = i;
    while (j < n && normalized[j] != ' ') ++j;
    if (j > i) {
      size_t len = j - i;
      if (len >= options.min_token_length) {
        len = std::min(len, options.max_token_length);
        tokens.emplace_back(normalized.substr(i, len));
      }
    }
    i = j;
  }
  return tokens;
}

// TokenizeProfile by the reference: interns every token of every value
// in order, then sorts and de-duplicates the ids.
inline void TokenizeProfileReference(EntityProfile& profile,
                                     TokenDictionary& dict,
                                     const TokenizerOptions& options = {}) {
  std::vector<TokenId> ids;
  std::string flat;
  profile.ForEachAttribute(
      [&](std::string_view /*name*/, std::string_view value) {
        for (const std::string& token : SplitReference(value, options)) {
          ids.push_back(dict.Intern(token));
          if (!flat.empty()) flat.push_back(' ');
          flat.append(token);
        }
      });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  profile.set_tokens(std::move(ids));
  profile.set_flat_text(std::move(flat));
}

}  // namespace pier

#endif  // PIER_TESTS_TOKENIZER_REFERENCE_H_
