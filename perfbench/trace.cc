#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

namespace {

// Per-thread so worker threads of the sharded and fleet shapes never
// disturb the counts of the thread driving the traced replica; the counts
// therefore repeat exactly from run to run on the same stream.
thread_local uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t thread_allocs() { return t_allocs; }

uint32_t SpanRecorder::intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

bool SpanRecorder::write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tparent\tpacket\tstart_ns\tend_ns\tallocs\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%llu\t%lld\t%lld\t%llu\n", names_[s.name].c_str(),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.packet), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<unsigned long long>(s.allocs));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> self_times(const std::vector<Span>& spans) {
  // Children grouped by parent without a container per span: count, prefix
  // sums, fill (the traced run records millions of spans).
  const size_t n = spans.size();
  std::vector<uint32_t> first(n + 1, 0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent) ++first[s.parent + 1];
  }
  for (size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  std::vector<std::pair<int64_t, int64_t>> kids(first[n]);
  std::vector<uint32_t> fill(first.begin(), first.end() - 1);
  for (const Span& s : spans) {
    if (s.parent != kNoParent) kids[fill[s.parent]++] = {s.start_ns, s.end_ns};
  }
  std::vector<int64_t> self(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    const auto begin = kids.begin() + first[i], end = kids.begin() + first[i + 1];
    std::sort(begin, end);
    int64_t covered = 0, reach = lo;  // union of child intervals, clipped
    for (auto it = begin; it != end; ++it) {
      const int64_t start = std::max(it->first, reach), stop = std::min(it->second, hi);
      if (stop > start) {
        covered += stop - start;
        reach = stop;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

}  // namespace perfbench
