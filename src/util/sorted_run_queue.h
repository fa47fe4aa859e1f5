// A capacity-bounded max-queue for a pop-heavy queue fed in bursts
// (I-PES's EntityQueue): a sorted run, read from its front, plus a
// small binary heap of fresh elements.
//
// - Pop takes the greater of the run's head and the heap's top: O(1)
//   from the run, O(log f) from a heap of f fresh elements.
// - Push goes to the heap. The heap merges into the run (one linear
//   pass, in the run's own buffer) only once it outgrows a fraction
//   of the run, so a burst of pushes between two pops costs no merge.
// - The bound is applied lazily: the content is trimmed from its low
//   end to `capacity` before every pop and at every merge. Under a
//   strict total order that equals evicting the minimum at each
//   overflowing push (BoundedPriorityQueue::PushBounded): the elements
//   held at the next pop are the top `capacity` of the elements held
//   at the last pop plus those pushed since, either way.

#ifndef PIER_UTIL_SORTED_RUN_QUEUE_H_
#define PIER_UTIL_SORTED_RUN_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "util/check.h"

namespace pier {

// T: element type. Less: strict weak order; the queue pops the
// Less-greatest element first, like BoundedPriorityQueue.
template <typename T, typename Less>
class SortedRunQueue {
 public:
  explicit SortedRunQueue(size_t capacity, Less less = Less())
      : capacity_(capacity), less_(std::move(less)) {}

  bool empty() const { return head_ == run_.size() && fresh_.empty(); }

  void Push(T x) {
    if (capacity_ == 0) return;
    fresh_.push_back(std::move(x));
    std::push_heap(fresh_.begin(), fresh_.end(), less_);
    const size_t live = run_.size() - head_;
    if (fresh_.size() > std::max(kMinFresh, live / kFreshFraction)) Merge();
  }

  // Replaces the content with the top `capacity` of `items` (what
  // pushing each into an empty queue would keep).
  void Assign(std::vector<T> items) {
    run_ = std::move(items);
    head_ = 0;
    fresh_.clear();
    std::sort(run_.begin(), run_.end(), greater());
    if (run_.size() > capacity_) run_.resize(capacity_);
  }

  T PopMax() {
    Trim();
    PIER_DCHECK(!empty());
    if (!fresh_.empty() &&
        (head_ == run_.size() || less_(run_[head_], fresh_.front()))) {
      std::pop_heap(fresh_.begin(), fresh_.end(), less_);
      T out = std::move(fresh_.back());
      fresh_.pop_back();
      return out;
    }
    return std::move(run_[head_++]);
  }

  // The content after the trim, in pop order: the same bytes whatever
  // the split between run and heap (the snapshot form).
  std::vector<T> Sorted() const {
    std::vector<T> fresh = fresh_;
    std::sort(fresh.begin(), fresh.end(), greater());
    std::vector<T> out;
    out.reserve(run_.size() - head_ + fresh.size());
    std::merge(run_.begin() + static_cast<std::ptrdiff_t>(head_), run_.end(),
               fresh.begin(), fresh.end(), std::back_inserter(out),
               greater());
    if (out.size() > capacity_) out.resize(capacity_);
    return out;
  }

  // Replaces the content with a Sorted() payload. Returns false, leaving
  // the queue unchanged, unless `items` is in pop order (equal
  // neighbours allowed) and within capacity.
  bool RestoreSorted(std::vector<T> items) {
    if (items.size() > capacity_) return false;
    for (size_t i = 1; i < items.size(); ++i) {
      if (less_(items[i - 1], items[i])) return false;
    }
    run_ = std::move(items);
    head_ = 0;
    fresh_.clear();
    return true;
  }

 private:
  // The heap merges into the run once it holds more than this many
  // elements and more than 1/kFreshFraction of the run.
  static constexpr size_t kMinFresh = 1024;
  static constexpr size_t kFreshFraction = 4;

  struct Greater {
    Less less;
    bool operator()(const T& a, const T& b) const { return less(b, a); }
  };
  Greater greater() const { return Greater{less_}; }

  // Sorts the heap descending (still a valid heap), so both parts hold
  // their smallest elements at the back.
  void SortFresh() { std::sort(fresh_.begin(), fresh_.end(), greater()); }

  // Drops the smallest elements beyond capacity, from the backs of the
  // run and the sorted heap.
  void Trim() {
    size_t run_end = run_.size();
    size_t fresh_end = fresh_.size();
    if (run_end - head_ + fresh_end <= capacity_) return;
    SortFresh();
    for (size_t excess = run_end - head_ + fresh_end - capacity_; excess > 0;
         --excess) {
      const bool drop_run =
          fresh_end == 0 ||
          (run_end > head_ && !less_(fresh_[fresh_end - 1], run_[run_end - 1]));
      if (drop_run) {
        --run_end;
      } else {
        --fresh_end;
      }
    }
    run_.resize(run_end);
    fresh_.resize(fresh_end);
  }

  // Merges the heap into the run: the popped front is dropped, the run
  // grows by the heap's size, and a merge from the back (smallest
  // first) fills it in place; then the run is cut to capacity.
  void Merge() {
    SortFresh();
    run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    size_t r = run_.size();
    size_t f = fresh_.size();
    run_.resize(r + f);
    for (size_t w = r + f; f > 0;) {
      if (r > 0 && less_(run_[r - 1], fresh_[f - 1])) {
        run_[--w] = std::move(run_[--r]);
      } else {
        run_[--w] = std::move(fresh_[--f]);
      }
    }
    fresh_.clear();
    if (run_.size() > capacity_) run_.resize(capacity_);
  }

  // run_[head_, end): descending; [0, head_) already popped.
  std::vector<T> run_;
  size_t head_ = 0;
  // Max-heap under less_.
  std::vector<T> fresh_;
  size_t capacity_;
  Less less_;
};

}  // namespace pier

#endif  // PIER_UTIL_SORTED_RUN_QUEUE_H_
