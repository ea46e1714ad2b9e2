#ifndef VIEWJOIN_PERFBENCH_SPAN_TRACE_H_
#define VIEWJOIN_PERFBENCH_SPAN_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace viewjoin::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call the benchmark made into a layer's public API.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   // index in the same log; -1 for a root span
  uint64_t request = 0;  // shared by the spans of one request
};

/// Spans recorded by one thread, kept in memory until the run ends. A null
/// SpanLog* means tracing is off; ScopedSpan then records nothing.
class SpanLog {
 public:
  int64_t Open(const char* name, int64_t parent, uint64_t request) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Appends `other`'s spans, re-basing their parent indices.
  void Append(const SpanLog& other) {
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span span : other.spans_) {
      if (span.parent >= 0) span.parent += base;
      spans_.push_back(span);
    }
  }

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = -1,
             uint64_t request = 0)
      : log_(log), index_(log ? log->Open(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  int64_t index_;
};

/// Per-name totals: calls, wall time, and self time (duration minus the
/// part of the interval its child spans cover).
struct SpanTotals {
  uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};

inline std::map<std::string, SpanTotals> SelfTimes(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    SpanTotals& t = totals[span.name];
    ++t.calls;
    t.total_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    t.self_ms += static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
  }
  return totals;
}

/// Writes the spans as JSON, times in microseconds from `origin_ns`.
inline bool WriteSpanFile(const std::string& path, const SpanLog& log,
                          int64_t origin_ns, const std::string& workload,
                          uint64_t seed) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
               workload.c_str(), static_cast<unsigned long long>(seed));
  const std::vector<Span>& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s\n {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %lld, \"request\": %llu}",
                 i == 0 ? "" : ",", i, s.name,
                 static_cast<double>(s.start_ns - origin_ns) / 1e3,
                 static_cast<double>(s.end_ns - origin_ns) / 1e3,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace viewjoin::perfbench

#endif  // VIEWJOIN_PERFBENCH_SPAN_TRACE_H_
