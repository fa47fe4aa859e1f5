#include "text/tokenizer.h"

#include <algorithm>
#include <string>
#include <vector>

#include "util/hashing.h"

namespace pier {

namespace {

// A kept token of the profile being tokenized: its bytes in the flat
// text and their HashString.
struct TokenSpan {
  size_t offset;
  size_t length;
  uint64_t hash;
};

}  // namespace

void Tokenizer::TokenizeProfile(EntityProfile& profile,
                                TokenDictionary& dict) const {
  // The ingest hot path, one scan per value: each byte is folded by
  // table, written straight into the flat text and hashed, so a token
  // is ready to intern when its run ends. Per value the flat text
  // grows by at most the value's length plus one separator, which
  // sizes it up front.
  size_t bound = 0;
  profile.ForEachAttribute(
      [&](std::string_view /*name*/, std::string_view value) {
        bound += value.size() + 1;
      });
  std::string flat(bound, '\0');
  char* const base = flat.data();
  char* out = base;
  thread_local std::vector<TokenSpan> spans;
  spans.clear();
  const size_t min_length = options_.min_token_length;
  const size_t max_length = options_.max_token_length;
  profile.ForEachAttribute(
      [&](std::string_view /*name*/, std::string_view value) {
        const auto* p = reinterpret_cast<const unsigned char*>(value.data());
        const auto* const end = p + value.size();
        for (;;) {
          while (p != end && kTokenFold[*p] == 0) ++p;
          if (p == end) return;
          // Tokens are joined by one space; the first one has none.
          char* const before = out;
          if (out != base) *out++ = ' ';
          char* const start = out;
          const unsigned char* const run = p;
          const auto* const cut =
              p + std::min<size_t>(max_length, static_cast<size_t>(end - p));
          uint64_t hash = kFnvOffsetBasis;
          for (char c; p != cut && (c = kTokenFold[*p]) != 0; ++p) {
            *out++ = c;
            hash = FnvStep(hash, static_cast<unsigned char>(c));
          }
          while (p != end && kTokenFold[*p] != 0) ++p;  // past the cut
          if (static_cast<size_t>(p - run) < min_length) {
            out = before;
            continue;
          }
          spans.push_back({static_cast<size_t>(start - base),
                           static_cast<size_t>(out - start), hash});
        }
      });
  flat.resize(static_cast<size_t>(out - base));
  // Interned as a batch: every home slot is requested first, so the
  // lookups' cache misses overlap; ids are still assigned in token
  // order.
  for (const TokenSpan& span : spans) dict.Prefetch(span.hash);
  std::vector<TokenId> ids;
  ids.reserve(spans.size());
  for (const TokenSpan& span : spans) {
    ids.push_back(dict.Intern(
        std::string_view(flat.data() + span.offset, span.length), span.hash));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  profile.set_tokens(std::move(ids));
  profile.set_flat_text(std::move(flat));
}

}  // namespace pier
