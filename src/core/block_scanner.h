// GetComparisons(B) (Algorithm 2, line 11): when the stream is idle
// and the CmpIndex has been drained, the prioritizers fall back to
// scanning the block collection itself, emitting each block's
// comparisons from the smallest block to the biggest. This keeps the
// matcher busy ("continuing the computation even if the index becomes
// empty and the time budget is not yet exhausted") and is what lets
// PIER reach the eventual quality of batch ER.
//
// Incremental subtlety: blocks keep growing after they were scanned.
// The scanner therefore remembers the size at which it scanned each
// block and re-offers any block that has since gained members (the
// pipeline's executed-comparison filter suppresses the pairs that were
// already compared, so only the new pairs cost matcher time).

#ifndef PIER_CORE_BLOCK_SCANNER_H_
#define PIER_CORE_BLOCK_SCANNER_H_

#include <iosfwd>
#include <utility>
#include <vector>

#include "core/prioritizer.h"
#include "model/comparison.h"

namespace pier {

class BlockScanner {
 public:
  explicit BlockScanner(PrioritizerContext ctx) : ctx_(ctx) {}

  // Returns the comparisons of the next block due for (re)scanning
  // (smallest first), weighted by CBS; empty when every active block
  // has been scanned at its current size. Blocks that became active or
  // grew after the current scan order was built are picked up by a
  // rebuild once the order is exhausted.
  std::vector<Comparison> NextBlock(WorkStats* stats);

  // True when the last rebuild found no block due for scanning.
  bool Exhausted() const { return exhausted_; }

  // True once NextBlock has scanned a block. Until then every pair the
  // owning strategy emits came from candidate generation, once
  // (IncrementalPrioritizer::EmitsOnlyNewPairs); a rescan may offer a
  // pair again.
  bool ScannedAny() const { return scanned_any_; }

  // While the stream is live, a block is only rescanned after
  // meaningful growth (>= 2 members and >= 12.5%), which keeps rescan
  // work near-linear. Once the stream has ended, call this to lift the
  // throttle so one final pass covers every grown block.
  void AllowFullRescan() { full_rescan_ = true; }

  // Serializes scan progress (scanned sizes, pending order, flags).
  void Snapshot(std::ostream& out) const;

  // Restores a Snapshot payload. Returns false on decode failure.
  bool Restore(std::istream& in);

 private:
  void Rebuild();

  PrioritizerContext ctx_;
  // Per token: the block size when last scanned (0 = never scanned).
  std::vector<uint32_t> scanned_size_;
  // (size, token) of blocks due for scanning, sorted descending so the
  // smallest block pops from the back.
  std::vector<std::pair<uint32_t, TokenId>> order_;
  bool exhausted_ = false;
  bool full_rescan_ = false;
  // Some scanned_size_ entry is nonzero (restored from them).
  bool scanned_any_ = false;
};

}  // namespace pier

#endif  // PIER_CORE_BLOCK_SCANNER_H_
