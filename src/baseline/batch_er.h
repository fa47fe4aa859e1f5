// Batch ER baseline (Section 2.1): token blocking over the full
// dataset, then every block's comparisons executed in arbitrary
// (token-id) order. No prioritization: matches surface whenever their
// comparison happens to run, and the result is only complete at the
// very end -- the F_batch reference of Definitions 1-3.

#ifndef PIER_BASELINE_BATCH_ER_H_
#define PIER_BASELINE_BATCH_ER_H_

#include <vector>

#include "baseline/streaming_er_base.h"
#include "util/scalable_bloom_filter.h"

namespace pier {

class BatchEr : public StreamingErBase {
 public:
  BatchEr(DatasetKind kind, BlockingOptions blocking, size_t batch_size = 256)
      : StreamingErBase(kind, blocking), batch_size_(batch_size) {}

  WorkStats OnIncrement(std::vector<EntityProfile> profiles) override;
  WorkStats OnStreamEnd() override;
  std::vector<Comparison> NextBatch(WorkStats* stats) override;

  const char* name() const override { return "BATCH"; }

 private:
  // Refills buffer_ with the next non-empty block's comparisons.
  void FillBuffer(WorkStats* stats);

  size_t batch_size_;
  bool started_ = false;
  TokenId cursor_ = 0;
  std::vector<Comparison> buffer_;
  ScalableBloomFilter executed_;
};

}  // namespace pier

#endif  // PIER_BASELINE_BATCH_ER_H_
