#include "text/tokenizer.h"

#include <algorithm>
#include <cctype>

namespace pier {

namespace {

inline char NormalizeChar(char c) {
  const unsigned char uc = static_cast<unsigned char>(c);
  if (std::isalnum(uc)) return static_cast<char>(std::tolower(uc));
  return ' ';
}

}  // namespace

std::string Tokenizer::Normalize(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) out.push_back(NormalizeChar(c));
  return out;
}

std::vector<std::string> Tokenizer::Split(std::string_view text) const {
  std::vector<std::string> tokens;
  const std::string normalized = Normalize(text);
  size_t i = 0;
  const size_t n = normalized.size();
  while (i < n) {
    while (i < n && normalized[i] == ' ') ++i;
    size_t j = i;
    while (j < n && normalized[j] != ' ') ++j;
    if (j > i) {
      size_t len = j - i;
      if (len >= options_.min_token_length) {
        if (len > options_.max_token_length) len = options_.max_token_length;
        tokens.emplace_back(normalized.substr(i, len));
      }
    }
    i = j;
  }
  return tokens;
}

void Tokenizer::TokenizeProfile(EntityProfile& profile,
                                TokenDictionary& dict) const {
  // The ingest hot path: normalize each value into a reusable buffer
  // and intern string_view slices of it directly -- no per-token or
  // per-value heap allocation (Split's std::string materialization is
  // for cold callers only). Byte-identical output to the Split-based
  // formulation.
  std::vector<TokenId> ids;
  std::string flat;
  thread_local std::string normalized;
  profile.ForEachAttribute(
      [&](std::string_view /*name*/, std::string_view value) {
        normalized.clear();
        for (const char c : value) normalized.push_back(NormalizeChar(c));
        size_t i = 0;
        const size_t n = normalized.size();
        while (i < n) {
          while (i < n && normalized[i] == ' ') ++i;
          size_t j = i;
          while (j < n && normalized[j] != ' ') ++j;
          if (j > i) {
            size_t len = j - i;
            if (len >= options_.min_token_length) {
              if (len > options_.max_token_length) {
                len = options_.max_token_length;
              }
              const std::string_view token(normalized.data() + i, len);
              ids.push_back(dict.Intern(token));
              if (!flat.empty()) flat.push_back(' ');
              flat.append(token);
            }
          }
          i = j;
        }
      });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  profile.set_tokens(std::move(ids));
  profile.set_flat_text(std::move(flat));
}

}  // namespace pier
