// A double-ended, optionally capacity-bounded priority queue backed by
// an interval heap (a min-max heap storing a [min, max] interval per
// node). It supports O(log n) PushBounded / PopMax / PopMin and O(1)
// PeekMax / PeekMin.
//
// This is the data structure behind every CmpIndex variant in the PIER
// algorithms (Sections 4-6 of the paper): the prioritizers repeatedly
// dequeue the *best* (max-priority) comparison while the bound evicts
// the *worst* (min-priority) comparison when the queue overflows, which
// keeps the index memory footprint constant on unbounded streams.

#ifndef PIER_UTIL_BOUNDED_PRIORITY_QUEUE_H_
#define PIER_UTIL_BOUNDED_PRIORITY_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace pier {

// T: element type. Less: strict weak order; the queue pops the
// Less-greatest element first ("max" below always means Less-greatest).
template <typename T, typename Less = std::less<T>>
class BoundedPriorityQueue {
 public:
  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  explicit BoundedPriorityQueue(size_t capacity = kUnbounded,
                                Less less = Less())
      : capacity_(capacity), less_(std::move(less)) {}

  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  size_t capacity() const { return capacity_; }
  void Clear() { v_.clear(); }

  // Unconditionally inserts (the queue may exceed no bound here;
  // callers that want bounded behaviour use PushBounded).
  void Push(T x) {
    v_.push_back(std::move(x));
    SiftUp(v_.size() - 1);
  }

  // Inserts respecting the capacity bound: when full, the new element
  // replaces the current minimum if it is strictly greater, otherwise
  // it is rejected. Returns true iff the element was inserted.
  bool PushBounded(T x) {
    if (capacity_ == 0) return false;
    if (v_.size() >= capacity_) {
      if (!less_(PeekMin(), x)) return false;
      // Replace-min: overwrite the minimum and restore the interval
      // invariant with a single downward sift instead of a full
      // PopMin + Push round trip (the fix-up mirrors PopMin's). The
      // queue's pop order is unchanged -- Less is a strict total
      // order, so dequeues depend only on the stored multiset.
      v_[0] = std::move(x);
      if (v_.size() >= 2 && less_(v_[1], v_[0])) std::swap(v_[0], v_[1]);
      SiftDownMin(0);
      return true;
    }
    Push(std::move(x));
    return true;
  }

  const T& PeekMax() const {
    PIER_DCHECK(!v_.empty());
    return v_.size() >= 2 ? v_[1] : v_[0];
  }

  const T& PeekMin() const {
    PIER_DCHECK(!v_.empty());
    return v_[0];
  }

  T PopMax() {
    PIER_DCHECK(!v_.empty());
    if (v_.size() <= 2) {
      T out = std::move(v_.back());
      v_.pop_back();
      return out;
    }
    T out = std::move(v_[1]);
    v_[1] = std::move(v_.back());
    v_.pop_back();
    if (less_(v_[1], v_[0])) std::swap(v_[0], v_[1]);
    SiftDownMax(0);
    return out;
  }

  T PopMin() {
    PIER_DCHECK(!v_.empty());
    if (v_.size() == 1) {
      T out = std::move(v_[0]);
      v_.pop_back();
      return out;
    }
    T out = std::move(v_[0]);
    v_[0] = std::move(v_.back());
    v_.pop_back();
    if (v_.size() >= 2 && less_(v_[1], v_[0])) std::swap(v_[0], v_[1]);
    SiftDownMin(0);
    return out;
  }

  // Removes every element matching `pred` and restores the interval
  // heap with one bottom-up rebuild: O(n) however many elements go,
  // where re-pushing the survivors would cost O(n log n). Returns the
  // number removed. The queue's pop order is unchanged -- Less is a
  // strict total order, so dequeues depend only on the stored multiset.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    const auto kept_end = std::remove_if(v_.begin(), v_.end(), pred);
    const auto removed = static_cast<size_t>(v_.end() - kept_end);
    if (removed == 0) return 0;
    v_.erase(kept_end, v_.end());
    // Last node first: order the node's interval, then sift both ends
    // into the subtrees below, which are already valid interval heaps.
    for (size_t node = (v_.size() + 1) / 2; node-- > 0;) {
      const size_t lo = 2 * node;
      if (lo + 1 < v_.size() && less_(v_[lo + 1], v_[lo])) {
        std::swap(v_[lo], v_[lo + 1]);
      }
      SiftDownMin(node);
      SiftDownMax(node);
    }
    return removed;
  }

  // Read-only view of the underlying storage (heap order, not sorted).
  // Used by tests and by snapshots.
  const std::vector<T>& data() const { return v_; }

  // Replaces the storage with `data`, which must be a verbatim copy of
  // a previous data() from a queue with the same capacity and order
  // (snapshot restore). Returns false when `data` exceeds capacity or
  // is not an interval heap under this order (one O(n) pass).
  bool RestoreData(std::vector<T> data) {
    if (data.size() > capacity_) return false;
    for (size_t i = 1; i < data.size(); ++i) {
      // A node's max slot is not below its min slot, and each slot
      // lies within its parent node's [min, max] interval.
      if (i % 2 == 1 && less_(data[i], data[i - 1])) return false;
      if (i < 2) continue;
      const size_t p = 2 * ParentNode(NodeOf(i));
      if (less_(data[i], data[p]) || less_(data[p + 1], data[i])) {
        return false;
      }
    }
    v_ = std::move(data);
    return true;
  }

 private:
  // Slot i belongs to node i/2; node j spans slots {2j, 2j+1}.
  static size_t NodeOf(size_t slot) { return slot / 2; }
  static size_t ParentNode(size_t node) { return (node - 1) / 2; }

  size_t MaxSlot(size_t node) const {
    const size_t hi = 2 * node + 1;
    return hi < v_.size() ? hi : 2 * node;
  }

  void SiftUp(size_t i) {
    if (i == 0) return;
    if (i % 2 == 1) {
      // Slot i completes node i/2: restore intra-node order first.
      if (less_(v_[i], v_[i - 1])) {
        std::swap(v_[i], v_[i - 1]);
        BubbleUpMin(i - 1);
      } else {
        BubbleUpMax(i);
      }
    } else {
      // New single-element node: compare against the parent interval.
      const size_t p = ParentNode(NodeOf(i));
      if (less_(v_[i], v_[2 * p])) {
        BubbleUpMin(i);
      } else if (less_(v_[2 * p + 1], v_[i])) {
        BubbleUpMax(i);
      }
    }
  }

  void BubbleUpMin(size_t i) {
    while (NodeOf(i) > 0) {
      const size_t p = 2 * ParentNode(NodeOf(i));
      if (less_(v_[i], v_[p])) {
        std::swap(v_[i], v_[p]);
        i = p;
      } else {
        break;
      }
    }
  }

  void BubbleUpMax(size_t i) {
    while (NodeOf(i) > 0) {
      const size_t p = 2 * ParentNode(NodeOf(i)) + 1;
      if (less_(v_[p], v_[i])) {
        std::swap(v_[i], v_[p]);
        i = p;
      } else {
        break;
      }
    }
  }

  void SiftDownMax(size_t node) {
    for (;;) {
      const size_t c1 = 2 * node + 1;
      const size_t c2 = 2 * node + 2;
      size_t best = node;
      if (2 * c1 < v_.size() &&
          less_(v_[MaxSlot(best)], v_[MaxSlot(c1)])) {
        best = c1;
      }
      if (2 * c2 < v_.size() &&
          less_(v_[MaxSlot(best)], v_[MaxSlot(c2)])) {
        best = c2;
      }
      if (best == node) return;
      const size_t m = MaxSlot(best);
      std::swap(v_[m], v_[MaxSlot(node)]);
      if (m % 2 == 1 && less_(v_[m], v_[m - 1])) {
        std::swap(v_[m], v_[m - 1]);
      }
      node = best;
    }
  }

  void SiftDownMin(size_t node) {
    for (;;) {
      const size_t c1 = 2 * node + 1;
      const size_t c2 = 2 * node + 2;
      size_t best = node;
      if (2 * c1 < v_.size() && less_(v_[2 * c1], v_[2 * best])) best = c1;
      if (2 * c2 < v_.size() && less_(v_[2 * c2], v_[2 * best])) best = c2;
      if (best == node) return;
      const size_t m = 2 * best;
      std::swap(v_[m], v_[2 * node]);
      if (m + 1 < v_.size() && less_(v_[m + 1], v_[m])) {
        std::swap(v_[m], v_[m + 1]);
      }
      node = best;
    }
  }

  std::vector<T> v_;
  size_t capacity_;
  Less less_;
};

}  // namespace pier

#endif  // PIER_UTIL_BOUNDED_PRIORITY_QUEUE_H_
