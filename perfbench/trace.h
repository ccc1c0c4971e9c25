// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into each layer's public functions;
// nothing inside the program is instrumented. Each span carries its name,
// start, end, parent and packet id, plus the heap allocations made on the
// recording thread while it was open (counted by the global operator new
// replacement in trace.cc). Spans stay in memory until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Heap allocations made by the calling thread so far.
uint64_t thread_allocs();

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint32_t name = 0;  // id from SpanRecorder::intern()
  uint32_t parent = kNoParent;
  uint64_t packet = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t allocs = 0;
};

class SpanRecorder {
 public:
  /// Register a span name once, before recording; returns its id.
  uint32_t intern(const std::string& name);

  void reserve(size_t spans) { spans_.reserve(spans); }

  uint32_t open(uint32_t name, uint32_t parent, uint64_t packet) {
    spans_.push_back(Span{name, parent, packet, 0, 0, thread_allocs()});
    spans_.back().start_ns = now_ns();
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void close(uint32_t span) {
    Span& s = spans_[span];
    s.end_ns = now_ns();
    s.allocs = thread_allocs() - s.allocs;
  }

  /// Re-label a span whose class is known only once its call returned.
  void rename(uint32_t span, uint32_t name) { spans_[span].name = name; }

  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

  /// Write every span as tab-separated text: a header line, then
  /// `name parent packet start_ns end_ns allocs` per span (parent is the
  /// line index of the parent span, -1 for a root). Returns false when the
  /// file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children's intervals.
std::vector<int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
