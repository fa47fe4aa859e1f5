// Adapts a PierPipeline (any strategy of the strategy table) to the
// simulator's ErAlgorithm interface. This is also the reference wiring
// for real deployments: arrivals feed Ingest, spare time drives
// EmitBatch and Tick, and each executed batch's verdicts and matching
// time feed back through RecordVerdicts.

#ifndef PIER_STREAM_PIER_ADAPTER_H_
#define PIER_STREAM_PIER_ADAPTER_H_

#include <vector>

#include "core/pier_pipeline.h"
#include "stream/er_algorithm.h"

namespace pier {

class PierAdapter : public ErAlgorithm {
 public:
  explicit PierAdapter(PierOptions options)
      : strategy_(options.strategy), pipeline_(options) {}

  WorkStats OnIncrement(std::vector<EntityProfile> profiles) override {
    return pipeline_.Ingest(std::move(profiles));
  }

  std::vector<Comparison> NextBatch(WorkStats* stats) override {
    std::vector<Comparison> batch =
        pipeline_.EmitBatch(pipeline_.adaptive_k().FindK(), stats);
    stats->index_ops += batch.size();
    return batch;
  }

  WorkStats OnIdleTick() override { return pipeline_.Tick(); }

  WorkStats OnStreamEnd() override {
    pipeline_.NotifyStreamEnd();
    return pipeline_.Tick();
  }

  void OnVerdicts(const std::vector<Comparison>& batch,
                  const std::vector<MatchVerdict>& verdicts,
                  double match_seconds) override {
    pipeline_.RecordVerdicts(batch, verdicts, match_seconds);
  }

  void OnArrival(double time) override { pipeline_.ReportArrival(time); }

  const EntityProfile& Profile(ProfileId id) const override {
    return pipeline_.profiles().Get(id);
  }

  bool SupportsSnapshot() const override { return true; }
  void Snapshot(persist::SnapshotBuilder& builder) const override {
    pipeline_.Snapshot(builder);
  }
  bool Restore(const persist::SnapshotReader& reader,
               std::string* error) override {
    return pipeline_.Restore(reader, error);
  }

  const char* name() const override { return ToString(strategy_); }

  PierPipeline& pipeline() { return pipeline_; }

 private:
  PierStrategy strategy_;
  PierPipeline pipeline_;
};

}  // namespace pier

#endif  // PIER_STREAM_PIER_ADAPTER_H_
