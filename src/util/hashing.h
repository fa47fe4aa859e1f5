// 64-bit hashing utilities shared by Bloom filters, token dictionaries,
// and comparison filters.

#ifndef PIER_UTIL_HASHING_H_
#define PIER_UTIL_HASHING_H_

#include <cstdint>
#include <string_view>

namespace pier {

// SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Combines two hash values (boost-style, 64 bit).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (Mix64(b) + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

// Packs an unordered pair of 32-bit ids into a canonical 64-bit key
// with the smaller id in the high half, so (a, b) and (b, a) map to
// the same key.
inline uint64_t PairKey(uint32_t a, uint32_t b) {
  const uint32_t lo = a < b ? a : b;
  const uint32_t hi = a < b ? b : a;
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

// FNV-1a 64-bit string hash; deterministic across platforms and runs
// (unlike std::hash<std::string_view>, which libstdc++ seeds per
// process for some configurations). FnvStep lets a scanner hash bytes
// as it reads them.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

inline uint64_t FnvStep(uint64_t h, unsigned char byte) {
  return (h ^ byte) * 0x100000001b3ULL;
}

inline uint64_t HashString(std::string_view s) {
  uint64_t h = kFnvOffsetBasis;
  for (const char c : s) h = FnvStep(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace pier

#endif  // PIER_UTIL_HASHING_H_
