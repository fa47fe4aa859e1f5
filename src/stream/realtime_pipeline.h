// Real-time (wall-clock, multi-threaded) deployment of PierPipeline: a
// producer thread (your code) feeds increments via Ingest(); a
// background worker continuously emits the best comparisons, hands them
// to the parallel match executor, and invokes a callback for every
// detected duplicate. This mirrors the paper's asynchronous
// Akka-Streams deployment, while the discrete-event StreamSimulator
// remains the tool for reproducible evaluation.
//
// RealtimePipeline is the one-shard ShardedPipeline (see
// stream/sharded_pipeline.h for the full API and threading model): one
// shard worker runs the emit -> match -> deliver loop over a bounded
// microbatch queue, folding verdicts into the serving ClusterIndex and
// running the match callback on its own thread. Scale-out is one
// option away (ShardedOptions::shard_count).

#ifndef PIER_STREAM_REALTIME_PIPELINE_H_
#define PIER_STREAM_REALTIME_PIPELINE_H_

#include <utility>

#include "stream/sharded_pipeline.h"

namespace pier {

class RealtimePipeline : public ShardedPipeline {
 public:
  // `matcher` must outlive this object. options.execution_threads
  // sets the match-execution parallelism (1 = sequential).
  RealtimePipeline(PierOptions options, const Matcher* matcher,
                   MatchCallback on_match)
      : ShardedPipeline(OneShard(std::move(options)), matcher,
                        std::move(on_match)) {}

 private:
  static ShardedOptions OneShard(PierOptions options) {
    ShardedOptions sharded;  // shard_count = 1
    sharded.pipeline = std::move(options);
    return sharded;
  }
};

}  // namespace pier

#endif  // PIER_STREAM_REALTIME_PIPELINE_H_
