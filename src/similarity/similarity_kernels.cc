#include "similarity/similarity_kernels.h"

#include <algorithm>
#include <cmath>

#include "similarity/intersect_kernel.h"

namespace pier {

namespace {

constexpr uint64_t kHighBit = uint64_t{1} << 63;

// Unit-cost edits are unaffected by a shared prefix or suffix, so the
// kernels only ever see the differing core of the two strings.
void TrimCommonAffixes(std::string_view* a, std::string_view* b) {
  size_t prefix = 0;
  const size_t min_len = std::min(a->size(), b->size());
  while (prefix < min_len && (*a)[prefix] == (*b)[prefix]) ++prefix;
  a->remove_prefix(prefix);
  b->remove_prefix(prefix);
  size_t suffix = 0;
  const size_t rem = std::min(a->size(), b->size());
  while (suffix < rem &&
         (*a)[a->size() - 1 - suffix] == (*b)[b->size() - 1 - suffix]) {
    ++suffix;
  }
  a->remove_suffix(suffix);
  b->remove_suffix(suffix);
}

// Builds the epoch-stamped Peq table for `pattern` and returns the
// block count. Only rows of bytes that occur in the pattern are
// (re-)zeroed; absent bytes resolve to scratch->zeros at lookup time.
size_t BuildPeq(std::string_view pattern, SimilarityScratch* s) {
  const size_t blocks = (pattern.size() + 63) / 64;
  s->ReserveBlocks(blocks);
  ++s->epoch;
  const size_t stride = s->block_capacity;
  for (size_t i = 0; i < pattern.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(pattern[i]);
    uint64_t* row = &s->peq[size_t{c} * stride];
    if (s->peq_stamp[c] != s->epoch) {
      std::fill(row, row + blocks, uint64_t{0});
      s->peq_stamp[c] = s->epoch;
    }
    row[i >> 6] |= uint64_t{1} << (i & 63);
  }
  return blocks;
}

// Core Myers column scan: pattern is the shorter (non-empty) string,
// text the longer, and callers guarantee n - m <= max_dist and that
// max_dist + text.size() cannot overflow. Returns the exact distance
// if it is <= max_dist, otherwise some value > max_dist.
//
// Multi-word patterns are scanned in a diagonal band. Any alignment
// through cell (i, j) costs at least |j - i| + |delta - (j - i)| with
// delta = n - m, so only diagonals j - i in [-w, delta + w], w =
// (max_dist - delta) / 2, can carry a distance <= max_dist; each
// column runs only the 64-row blocks that cover that band's rows. The
// window's edges over-estimate the DP (see the loop), so every cell
// on a path of cost <= max_dist is exact and no over-estimated cell
// can report a distance <= max_dist. An unbounded call (max_dist >=
// m + n) gets the full band and never takes the diagonal exit.
size_t MyersCore(std::string_view pattern, std::string_view text,
                 size_t max_dist, SimilarityScratch* s) {
  const size_t m = pattern.size();
  const size_t n = text.size();
  const size_t blocks = BuildPeq(pattern, s);
  const size_t stride = s->block_capacity;
  const uint64_t* zeros = s->zeros.data();

  if (blocks == 1) {
    // Single-word fast path (Hyyro's formulation of Myers 1999).
    uint64_t pv = ~uint64_t{0};
    uint64_t mv = 0;
    size_t score = m;
    const uint64_t high = uint64_t{1} << (m - 1);
    for (size_t j = 0; j < n; ++j) {
      const unsigned char c = static_cast<unsigned char>(text[j]);
      const uint64_t eq =
          s->peq_stamp[c] == s->epoch ? s->peq[size_t{c} * stride] : 0;
      const uint64_t xv = eq | mv;
      const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
      uint64_t ph = mv | ~(xh | pv);
      uint64_t mh = pv & xh;
      if (ph & high) {
        ++score;
      } else if (mh & high) {
        --score;
      }
      ph = (ph << 1) | 1;  // D[0][j] = j: the top boundary grows by one
      mh <<= 1;
      pv = mh | ~(xv | ph);
      mv = ph & xv;
      // The final score can drop by at most one per remaining column.
      if (score > max_dist + (n - j - 1)) return max_dist + 1;
    }
    return score;
  }

  // Blocked multi-word variant over the band: per-block vertical
  // deltas, with the horizontal delta (+1/0/-1) carried across block
  // boundaries. Rows are 1-based; block b holds rows 64b+1 .. 64b+64
  // (its bit r is row 64b+r+1). `first`/`last` are the window's
  // blocks, `score` is D[bottom row of block `last`][j] and `diag` is
  // D[j - delta][j], the cell of column j on the diagonal that ends in
  // D[m][n].
  const size_t delta = n - m;
  const size_t w = (max_dist - delta) / 2;
  const size_t final_block = blocks - 1;
  const uint64_t final_high = uint64_t{1} << ((m - 1) & 63);
  const auto block_rows = [m](size_t b) {
    return std::min(m, 64 * (b + 1)) - 64 * b;
  };
  uint64_t* pv = s->pv.data();
  uint64_t* mv = s->mv.data();
  size_t first = 0;
  size_t last = (std::min(m, w + 1) - 1) >> 6;  // window of column 1
  ptrdiff_t diag = static_cast<ptrdiff_t>(delta);  // D[0][delta] = delta
  size_t score = 0;
  for (size_t b = 0; b <= last; ++b) {  // column 0: D[i][0] = i
    pv[b] = ~uint64_t{0};
    mv[b] = 0;
    score += block_rows(b);
  }
  for (size_t j = 1; j <= n; ++j) {
    const unsigned char c = static_cast<unsigned char>(text[j - 1]);
    const uint64_t* eq_row =
        s->peq_stamp[c] == s->epoch ? &s->peq[size_t{c} * stride] : zeros;
    // Bottom edge: the band reaches at most one more block per column.
    // The entering block's previous column is taken as D[64b][j-1] + r
    // for its row r, never below the true D[64b + r][j-1].
    if (((std::min(m, j + w) - 1) >> 6) > last) {
      ++last;
      pv[last] = ~uint64_t{0};
      mv[last] = 0;
      score += block_rows(last);
    }
    // Top edge: blocks wholly above the band drop out. The new top
    // block sees hin = +1, i.e. D[64 * first][j] = D[64 * first][j-1]
    // + 1, again never below the true value.
    if (j > delta + w) first = (j - delta - w - 1) >> 6;
    // Row j - delta holds this column's diagonal cell (none while j <=
    // delta); its block and bit, in the unsigned wrap-around otherwise.
    const size_t diag_block = j > delta ? (j - delta - 1) >> 6 : blocks;
    const uint64_t diag_bit = uint64_t{1} << ((j - delta - 1) & 63);
    int hin = 1;  // D[0][j] = j: the boundary row grows by one
    for (size_t b = first; b <= last; ++b) {
      const uint64_t high = b == final_block ? final_high : kHighBit;
      uint64_t eq = eq_row[b];
      const uint64_t pvb = pv[b];
      const uint64_t mvb = mv[b];
      const uint64_t xv = eq | mvb;
      if (hin < 0) eq |= 1;
      const uint64_t xh = (((eq & pvb) + pvb) ^ pvb) | eq;
      uint64_t ph = mvb | ~(xh | pvb);
      uint64_t mh = pvb & xh;
      int hout = 0;
      if (ph & high) {
        hout = 1;
      } else if (mh & high) {
        hout = -1;
      }
      ph <<= 1;
      mh <<= 1;
      if (hin > 0) {
        ph |= 1;
      } else if (hin < 0) {
        mh |= 1;
      }
      pv[b] = mh | ~(xv | ph);
      mv[b] = ph & xv;
      if (b == diag_block) {
        // D[r][j] = D[r-1][j-1] + (horizontal delta of row r-1, which
        // the shifted ph/mh hold at row r's bit) + (vertical delta of
        // row r in column j).
        diag += ((ph & diag_bit) != 0) - ((mh & diag_bit) != 0) +
                ((pv[b] & diag_bit) != 0) - ((mv[b] & diag_bit) != 0);
      }
      hin = hout;
    }
    score = static_cast<size_t>(static_cast<ptrdiff_t>(score) + hin);
    // Diagonal exit: D never decreases along a diagonal and diagonal
    // delta ends in D[m][n], so D[j - delta][j] > max_dist decides the
    // verdict. That cell lies in the band, so it is exact whenever its
    // true value is <= max_dist.
    if (diag > static_cast<ptrdiff_t>(max_dist)) return max_dist + 1;
  }
  return score;
}

}  // namespace

void SimilarityScratch::ReserveBlocks(size_t blocks) {
  if (blocks <= block_capacity) return;
  block_capacity = std::max(blocks, block_capacity * 2);
  peq.assign(256 * block_capacity, 0);
  pv.assign(block_capacity, 0);
  mv.assign(block_capacity, 0);
  zeros.assign(block_capacity, 0);
  std::fill(std::begin(peq_stamp), std::end(peq_stamp), uint64_t{0});
  epoch = 0;  // rows were re-laid out; every stamp is now stale
}

size_t MyersEditDistance(std::string_view a, std::string_view b,
                         SimilarityScratch* scratch) {
  TrimCommonAffixes(&a, &b);
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  if (b.empty()) return a.size();
  // max_dist = m + n makes the cutoff unreachable: this is the exact
  // variant (score <= max(m, n) always).
  return MyersCore(b, a, a.size() + b.size(), scratch);
}

size_t MyersEditDistanceBounded(std::string_view a, std::string_view b,
                                size_t max_dist, SimilarityScratch* scratch) {
  TrimCommonAffixes(&a, &b);
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  if (a.size() - b.size() > max_dist) return max_dist + 1;
  if (b.empty()) return a.size();  // <= max_dist by the check above
  const size_t d =
      MyersCore(b, a, std::min(max_dist, a.size() + b.size()), scratch);
  return d <= max_dist ? d : max_dist + 1;
}

ptrdiff_t MaxEditDistanceForThreshold(double threshold, size_t max_len) {
  const ptrdiff_t len = static_cast<ptrdiff_t>(max_len);
  const double dlen = static_cast<double>(max_len);
  // Exactly the score expression of NormalizedEditSimilarity();
  // monotone non-increasing in d because IEEE division and
  // subtraction are correctly rounded (hence monotone).
  const auto sim = [dlen](ptrdiff_t d) {
    return 1.0 - static_cast<double>(d) / dlen;
  };
  double guess = (1.0 - threshold) * dlen;
  ptrdiff_t d;
  if (guess <= -1.0) {
    d = -1;
  } else if (guess >= static_cast<double>(len)) {
    d = len;
  } else {
    d = static_cast<ptrdiff_t>(guess);
  }
  while (d + 1 <= len && sim(d + 1) >= threshold) ++d;
  while (d >= 0 && sim(d) < threshold) --d;
  return d;
}

size_t MinOverlapForJaccard(double threshold, size_t size_a, size_t size_b) {
  const size_t total = size_a + size_b;
  // Exactly the score expression of JaccardSimilarity(); monotone
  // non-decreasing in c (numerator grows, denominator shrinks, and
  // correctly-rounded division is monotone in both).
  const auto sim = [total](size_t c) {
    return static_cast<double>(c) / static_cast<double>(total - c);
  };
  const size_t cap = std::min(size_a, size_b);
  const double guess = threshold * static_cast<double>(total) /
                       (1.0 + threshold);
  size_t c;
  if (!(guess > 0.0)) {  // also covers NaN from threshold == -1
    c = 0;
  } else if (guess >= static_cast<double>(cap)) {
    c = cap;
  } else {
    c = static_cast<size_t>(guess);
  }
  while (c <= cap && sim(c) < threshold) ++c;
  while (c > 0 && sim(c - 1) >= threshold) --c;
  return c;
}

size_t MinOverlapForCosine(double threshold, size_t size_a, size_t size_b) {
  // Exactly the denominator CosineSimilarity() divides by.
  const double denom = std::sqrt(static_cast<double>(size_a) *
                                 static_cast<double>(size_b));
  const auto sim = [denom](size_t c) {
    return static_cast<double>(c) / denom;
  };
  const size_t cap = std::min(size_a, size_b);
  const double guess = threshold * denom;
  size_t c;
  if (!(guess > 0.0)) {
    c = 0;
  } else if (guess >= static_cast<double>(cap)) {
    c = cap;
  } else {
    c = static_cast<size_t>(guess);
  }
  while (c <= cap && sim(c) < threshold) ++c;
  while (c > 0 && sim(c - 1) >= threshold) --c;
  return c;
}

bool IntersectionAtLeast(std::span<const TokenId> a,
                         std::span<const TokenId> b, size_t required) {
  if (required == 0) return true;
  const size_t sa = a.size();
  const size_t sb = b.size();
  if (required > std::min(sa, sb)) return false;

  const std::span<const TokenId> small = sa <= sb ? a : b;
  const std::span<const TokenId> large = sa <= sb ? b : a;

  // Heavily skewed sizes: gallop through the longer vector instead of
  // stepping the merge over all of it.
  constexpr size_t kGallopSkewRatio = 16;
  if (large.size() >= kGallopSkewRatio * small.size()) {
    size_t count = 0;
    size_t pos = 0;
    for (size_t i = 0; i < small.size(); ++i) {
      if (count + (small.size() - i) < required) return false;
      const TokenId x = small[i];
      // Exponential probe from the frontier; bounds 1, 2, ..., bound/2
      // were all < x, so the first element >= x lies in
      // (pos + bound/2, pos + bound].
      size_t bound = 1;
      while (pos + bound < large.size() && large[pos + bound] < x) {
        bound <<= 1;
      }
      const size_t lo = pos + bound / 2;
      const size_t hi = std::min(large.size(), pos + bound + 1);
      pos = static_cast<size_t>(
          std::lower_bound(large.begin() + static_cast<ptrdiff_t>(lo),
                           large.begin() + static_cast<ptrdiff_t>(hi), x) -
          large.begin());
      if (pos < large.size() && large[pos] == x) {
        ++count;
        if (count >= required) return true;
        ++pos;
      }
      if (pos >= large.size()) break;  // everything after x is larger too
    }
    return false;
  }

  // Near-balanced sizes: the batched merge kernel (SIMD when built
  // with PIER_SIMD, branchless scalar otherwise) with the same
  // early-exit bounds as the gallop path above.
  return SortedIntersectionAtLeast(small, large, required);
}

bool JaccardVerdict(std::span<const TokenId> a,
                    std::span<const TokenId> b, double threshold) {
  if (a.empty() && b.empty()) return 1.0 >= threshold;
  const size_t required = MinOverlapForJaccard(threshold, a.size(), b.size());
  return IntersectionAtLeast(a, b, required);
}

bool CosineVerdict(std::span<const TokenId> a,
                   std::span<const TokenId> b, double threshold) {
  if (a.empty() && b.empty()) return 1.0 >= threshold;
  if (a.empty() || b.empty()) return 0.0 >= threshold;
  const size_t required = MinOverlapForCosine(threshold, a.size(), b.size());
  return IntersectionAtLeast(a, b, required);
}

}  // namespace pier
