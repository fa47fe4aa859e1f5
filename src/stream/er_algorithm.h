// The simulator-facing interface every ER algorithm (the three PIER
// strategies and all baselines) implements. The stream simulator
// drives an instance through the arrival/processing interleaving of
// Section 3.1: increments are delivered when due *and* the algorithm
// is ready (backpressure), comparison batches are processed between
// arrivals, and idle ticks model the blocking step's periodic empty
// increments.

#ifndef PIER_STREAM_ER_ALGORITHM_H_
#define PIER_STREAM_ER_ALGORITHM_H_

#include <string>
#include <vector>

#include "core/prioritizer.h"
#include "model/comparison.h"
#include "model/entity_profile.h"

namespace pier {

namespace persist {
class SnapshotBuilder;
class SnapshotReader;
}  // namespace persist

class ErAlgorithm {
 public:
  virtual ~ErAlgorithm() = default;

  // Delivers one data increment (raw, untokenized profiles with dense
  // ids continuing ingestion order). Returns work accounting for the
  // modeled cost meter.
  virtual WorkStats OnIncrement(std::vector<EntityProfile> profiles) = 0;

  // The next batch of comparisons to hand to the matcher; empty when
  // the algorithm currently has nothing to emit. `stats` accumulates
  // the generation work.
  virtual std::vector<Comparison> NextBatch(WorkStats* stats) = 0;

  // Called when the stream is idle and NextBatch returned empty; an
  // opportunity to pull more work forward (PIER: empty-increment tick;
  // batch algorithms: the point where the end of input triggers their
  // main phase). Default: nothing.
  virtual WorkStats OnIdleTick() { return {}; }

  // Called once when the stream has no further increments; batch
  // algorithms start their full computation here.
  virtual WorkStats OnStreamEnd() { return {}; }

  // Backpressure: false while the algorithm must finish pending work
  // before accepting the next increment (I-BASE semantics). PIER
  // algorithms are always ready ("put comparisons temporarily on hold
  // when a new increment arrives").
  virtual bool ReadyForIncrement() const { return true; }

  // The feedback half of the resolution step: called once per
  // executed batch, with verdicts[i] the matcher's classification of
  // batch[i] and `match_seconds` the batch's matching cost. PIER
  // forwards it to PierPipeline::RecordVerdicts (prioritizer feedback,
  // cluster index, findK()). Default: nothing, so baselines and test
  // doubles keep compiling.
  virtual void OnVerdicts(const std::vector<Comparison>& batch,
                          const std::vector<MatchVerdict>& verdicts,
                          double match_seconds) {
    (void)batch;
    (void)verdicts;
    (void)match_seconds;
  }

  // Arrival-rate feedback for adaptive controllers; no-op by default.
  virtual void OnArrival(double time) { (void)time; }

  // Profile access for the matcher (every algorithm owns a store of
  // the profiles it has ingested).
  virtual const EntityProfile& Profile(ProfileId id) const = 0;

  // Checkpoint support (see src/persist/). Algorithms that can be
  // snapshotted and restored with recovery equivalence override all
  // three; the defaults keep lightweight test doubles compiling and
  // make the simulator reject checkpointing for unsupported
  // algorithms instead of writing unusable files.
  virtual bool SupportsSnapshot() const { return false; }
  virtual void Snapshot(persist::SnapshotBuilder& builder) const {
    (void)builder;
  }
  virtual bool Restore(const persist::SnapshotReader& reader,
                       std::string* error) {
    (void)reader;
    if (error != nullptr) {
      *error = std::string(name()) + " does not support snapshots";
    }
    return false;
  }

  virtual const char* name() const = 0;
};

}  // namespace pier

#endif  // PIER_STREAM_ER_ALGORITHM_H_
