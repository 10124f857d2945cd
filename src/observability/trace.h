// Per-query trace spans: a tree of timed, attributed scopes covering the
// serving path (cache lookup → rewrite phases → containment → plan
// execution), rendered to JSON.
//
// Tracing is opt-in and null-tolerant: every hook is a `TraceSpan*` that
// defaults to nullptr, and ScopedSpan built on a null parent is an inert
// shell, so instrumented code carries no branches. The expected cost of a
// disabled span is two pointer checks.
//
// A Trace (and its span tree) belongs to one query on one thread — the tree
// is deliberately NOT thread-safe, matching the single-threaded execution of
// a query inside a snapshot. Do not share a TraceSpan across threads.
#ifndef SVX_OBSERVABILITY_TRACE_H_
#define SVX_OBSERVABILITY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace svx {

class JsonWriter;

/// One node of the span tree. Created via Trace::root() or
/// TraceSpan::StartChild; spans self-time from construction to End() (or to
/// render time if never ended).
class TraceSpan {
 public:
  TraceSpan* StartChild(std::string_view name);

  /// Appends an already-ended child lasting `duration_us`: the total of a
  /// phase whose work was done in pieces interleaved with other phases
  /// (e.g. one maintenance phase summed over views), which no single
  /// scope covers.
  TraceSpan* AddTimedChild(std::string_view name, int64_t duration_us);

  /// Stops the clock. Idempotent; ScopedSpan calls this from its destructor.
  void End();

  void AddAttr(std::string_view key, int64_t value);
  void AddAttr(std::string_view key, uint64_t value) {
    AddAttr(key, static_cast<int64_t>(value));
  }
  void AddAttr(std::string_view key, double value);
  void AddAttr(std::string_view key, std::string_view value);
  void AddAttr(std::string_view key, const char* value) {
    AddAttr(key, std::string_view(value));
  }

  const std::string& name() const { return name_; }
  int64_t duration_us() const;
  const std::vector<std::unique_ptr<TraceSpan>>& children() const {
    return children_;
  }

  /// Finds a direct child by name; nullptr when absent. Test helper.
  const TraceSpan* FindChild(std::string_view name) const;

  /// {"name": ..., "duration_us": ..., "attrs": {...}, "children": [...]}
  /// (attrs/children omitted when empty).
  void RenderJson(JsonWriter* w) const;

 private:
  friend class Trace;
  using Clock = std::chrono::steady_clock;

  explicit TraceSpan(std::string_view name)
      : name_(name), start_(Clock::now()) {}

  struct Attr {
    std::string key;
    std::string value;  // pre-formatted
    bool quoted;        // string attrs render quoted, numeric ones bare
  };

  std::string name_;
  Clock::time_point start_;
  Clock::time_point end_{};
  bool ended_ = false;
  std::vector<Attr> attrs_;
  std::vector<std::unique_ptr<TraceSpan>> children_;
};

/// Owns a span tree for one traced query.
class Trace {
 public:
  explicit Trace(std::string_view name) : root_(name) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  TraceSpan* root() { return &root_; }
  const TraceSpan& root() const { return root_; }

  /// Renders the whole tree; ends the root first so its duration is final.
  std::string RenderJson();

 private:
  TraceSpan root_;
};

/// RAII span: opens a child of `parent` on construction, ends it on scope
/// exit. With a null parent every operation is a no-op, which is how the
/// untraced fast path stays branch-free at call sites.
class ScopedSpan {
 public:
  ScopedSpan(TraceSpan* parent, std::string_view name)
      : span_(parent != nullptr ? parent->StartChild(name) : nullptr) {}
  ~ScopedSpan() {
    if (span_ != nullptr) span_->End();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The underlying span — nullptr when tracing is off. Pass as the parent
  /// of nested spans.
  TraceSpan* get() const { return span_; }

  template <typename T>
  void Attr(std::string_view key, T value) {
    if (span_ != nullptr) span_->AddAttr(key, value);
  }

 private:
  TraceSpan* const span_;
};

}  // namespace svx

#endif  // SVX_OBSERVABILITY_TRACE_H_
