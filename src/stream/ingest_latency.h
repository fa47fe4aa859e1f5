// Ingest-to-first-verdict latency tracking for the realtime/sharded
// pipelines: how long after an Ingest() call does the match stage
// deliver its next verdict batch? This is the user-visible freshness
// of the progressive pipeline -- the adaptive-K controller optimizes
// comparison throughput, this histogram exposes what that means in
// wall-clock delay from data arrival to served verdicts.
//
// Mechanism: every Ingest pushes its arrival timestamp; every verdict
// batch delivery (a shard worker's serialized delivery step) closes
// out all arrivals that happened before it, recording one latency
// sample each. An ingest whose work produced no comparisons is closed
// out when the pipeline drains (FlushAll) -- but those samples measure
// time-to-quiescence, not verdict freshness, so they land in the
// separate `drain` histogram (realtime.ingest_to_quiescence_ns) rather
// than polluting the freshness percentiles with shutdown-shaped
// outliers. Both paths reset the pending gauge.

#ifndef PIER_STREAM_INGEST_LATENCY_H_
#define PIER_STREAM_INGEST_LATENCY_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>

#include "obs/metrics.h"

namespace pier {

class IngestLatencyTracker {
 public:
  // All metrics may be null (un-instrumented runs cost a few pointer
  // checks per event). `latency` receives one nanosecond sample per
  // ingest closed out by a verdict delivery; `drain` receives the
  // samples of ingests closed out by quiescence instead; `pending`
  // tracks the number of ingests still waiting for either.
  IngestLatencyTracker(obs::Histogram* latency, obs::Gauge* pending,
                       obs::Histogram* drain = nullptr)
      : latency_(latency), drain_(drain), pending_(pending) {}

  IngestLatencyTracker(const IngestLatencyTracker&) = delete;
  IngestLatencyTracker& operator=(const IngestLatencyTracker&) = delete;

  // Call BEFORE the increment becomes visible to the match stage
  // (i.e. before the queue push): registering afterwards races a fast
  // worker, whose verdict delivery would then miss this arrival and
  // leave it to be closed out as a drain sample instead.
  void OnIngest() {
    std::lock_guard<std::mutex> lock(mutex_);
    arrivals_.push_back(std::chrono::steady_clock::now());
    obs::GaugeSet(pending_, static_cast<double>(arrivals_.size()));
  }

  // Undo the newest OnIngest: the increment never reached the match
  // stage (routing was rejected by a concurrent Stop()).
  void OnIngestAbandoned() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!arrivals_.empty()) arrivals_.pop_back();
    obs::GaugeSet(pending_, static_cast<double>(arrivals_.size()));
  }

  // A verdict batch reached the delivery point: every ingest that
  // arrived before now has seen its first verdict.
  void OnVerdictDelivered() { CloseOut(latency_); }

  // The pipeline went quiescent: close out ingests that never produced
  // a verdict. Their samples are time-to-quiescence, not freshness, so
  // they go to the drain histogram.
  void FlushAll() { CloseOut(drain_); }

 private:
  void CloseOut(obs::Histogram* sink) {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    while (!arrivals_.empty() && arrivals_.front() <= now) {
      if (sink != nullptr) {
        sink->Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - arrivals_.front())
                .count()));
      }
      arrivals_.pop_front();
    }
    obs::GaugeSet(pending_, static_cast<double>(arrivals_.size()));
  }

  obs::Histogram* latency_;
  obs::Histogram* drain_;
  obs::Gauge* pending_;
  std::mutex mutex_;
  std::deque<std::chrono::steady_clock::time_point> arrivals_;
};

}  // namespace pier

#endif  // PIER_STREAM_INGEST_LATENCY_H_
