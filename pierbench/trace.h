// In-memory spans for the traced run. The benchmark wraps each call it
// makes into a pier layer in a span (name, parent, start, end); the
// spans stay in memory while the run is timed and are written out as
// JSON lines when it ends. A layer's self time is its span's duration
// minus the part its direct children cover.
//
// Spans are recorded from one thread only (the driving thread of a
// repetition). A null Tracer* disables recording, which is how the
// untraced, end-to-end runs execute the same code.

#ifndef PIERBENCH_TRACE_H_
#define PIERBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace pierbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr uint32_t kNoParent = 0xffffffffu;

  // `name` must be a string literal (spans keep the pointer).
  uint32_t Begin(const char* name, uint32_t parent) {
    spans_.push_back(Span{name, parent, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t id) { spans_[id].end_ns = NowNs(); }

  double DurationSeconds(uint32_t id) const {
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) *
           1e-9;
  }

  // Self seconds summed per span name over the spans in the subtree of
  // `root` (root included), or over all spans for kNoParent. Children
  // always end before their parent, so the self times of a subtree add
  // up to its root's duration.
  std::map<std::string, double> SelfSeconds(uint32_t root = kNoParent) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    std::vector<uint8_t> inside(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      // Spans are appended in start order, so a parent precedes its
      // children and `inside` is final for the parent when read.
      inside[i] = root == kNoParent || i == root ||
                  (spans_[i].parent != kNoParent &&
                   inside[spans_[i].parent] != 0);
      if (spans_[i].parent != kNoParent && i != root) {
        child_ns[spans_[i].parent] += spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (inside[i] == 0) continue;
      const int64_t own = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
      self[spans_[i].name] += static_cast<double>(own) * 1e-9;
    }
    return self;
  }

  // Writes one JSON object per span; returns false when the file
  // cannot be written.
  bool WriteJsonLines(const std::string& path, const std::string& run) const {
    std::ofstream out(path, std::ios::app);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"run\":\"" << run << "\",\"id\":" << i << ",\"parent\":";
      if (s.parent == kNoParent) {
        out << "null";
      } else {
        out << s.parent;
      }
      out << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans_;
};

// RAII span; records nothing when `tracer` is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint32_t parent)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent)
                              : Tracer::kNoParent) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace pierbench

#endif  // PIERBENCH_TRACE_H_
