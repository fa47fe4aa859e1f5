// Bounded multi-producer blocking queue for the sharded ingest path
// (stream/sharded_pipeline.h): the router pushes microbatches and one
// shard worker pops them. It is the only queue on that path; workers
// deliver their verdicts directly.
//
// Backpressure semantics: Push blocks while the queue holds `capacity`
// items, so a slow shard stalls the router (and, transitively, every
// producer calling Ingest) instead of letting unprocessed microbatches
// grow without bound. The time a Push spent blocked is reported to the
// caller for the shard.backpressure_* metrics.
//
// Shutdown: Close() wakes every blocked Push/Pop. A closed queue
// rejects new pushes; Pop keeps draining already-queued items and
// returns false only when the queue is both closed and empty, so a
// graceful shutdown can finish queued work while an abort path (see
// ShardedPipeline::Stop) simply stops popping.

#ifndef PIER_STREAM_SHARD_QUEUE_H_
#define PIER_STREAM_SHARD_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace pier {

template <typename T>
class ShardQueue {
 public:
  explicit ShardQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  ShardQueue(const ShardQueue&) = delete;
  ShardQueue& operator=(const ShardQueue&) = delete;

  // Blocks until there is room (backpressure) or the queue is closed.
  // Returns false iff the queue was closed before the item could be
  // enqueued. When `wait_ns` is non-null it receives the nanoseconds
  // this call spent blocked on a full queue (0 when it never waited).
  bool Push(T item, uint64_t* wait_ns = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (wait_ns != nullptr) *wait_ns = 0;
    if (items_.size() >= capacity_ && !closed_) {
      const auto start = std::chrono::steady_clock::now();
      not_full_.wait(lock,
                     [this] { return items_.size() < capacity_ || closed_; });
      if (wait_ns != nullptr) {
        *wait_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
      }
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and
  // empty. Returns false only in the closed-and-empty case.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  // Non-blocking variant: returns false when the queue is currently
  // empty (closed or not).
  bool TryPop(T* out) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace pier

#endif  // PIER_STREAM_SHARD_QUEUE_H_
