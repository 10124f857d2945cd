// In-memory span recording for the benchmark's traced run.
//
// The driver opens one span around every public call it makes into a layer
// (name, start, end, parent span, and the id of the operation it belongs
// to). Spans stay in a preallocated vector while the workload runs and are
// written out once it ends. A disabled log records nothing and reads no
// clock, so the untraced run pays only a branch per call site.
#ifndef SVX_PERFBENCH_SPAN_LOG_H_
#define SVX_PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace svx::perfbench {

struct Span {
  const char* name;  // a string literal naming the layer call
  int32_t parent;    // index of the parent span; -1 for an operation root
  int64_t op;        // operation id (setup repetitions use negative ids)
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id, or -1 when the log is disabled.
  int32_t Open(const char* name, int32_t parent, int64_t op) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, op, Now(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  /// Closes span `id` (no-op for -1), optionally renaming it — a call whose
  /// layer is known only afterwards, such as a rewrite-cache hit or miss.
  void Close(int32_t id, const char* rename = nullptr) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = Now();
    if (rename != nullptr) spans_[static_cast<size_t>(id)].name = rename;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, in nanoseconds: each span's duration minus
  /// the time its children cover. An operation root's self time is the part
  /// of the operation no layer span accounts for (the remainder). Only
  /// spans whose root is named `root_name` are counted.
  std::map<std::string, int64_t> SelfTimes(const std::string& root_name) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, int64_t> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      size_t root = i;
      while (spans_[root].parent >= 0) {
        root = static_cast<size_t>(spans_[root].parent);
      }
      if (root_name != spans_[root].name) continue;
      const Span& s = spans_[i];
      out[s.name] += (s.end_ns - s.start_ns) - child_ns[i];
    }
    return out;
  }

  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"op\":%lld,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.parent, static_cast<long long>(s.op), s.name,
                   static_cast<long long>(s.start_ns - origin_ns_),
                   static_cast<long long>(s.end_ns - origin_ns_));
    }
    return std::fclose(f) == 0;
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  int64_t origin_ns_ = Now();
  std::vector<Span> spans_;
};

}  // namespace svx::perfbench

#endif  // SVX_PERFBENCH_SPAN_LOG_H_
