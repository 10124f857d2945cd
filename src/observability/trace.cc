#include "src/observability/trace.h"

#include "src/util/json_writer.h"
#include "src/util/strings.h"

namespace svx {

TraceSpan* TraceSpan::StartChild(std::string_view name) {
  children_.push_back(std::unique_ptr<TraceSpan>(new TraceSpan(name)));
  return children_.back().get();
}

TraceSpan* TraceSpan::AddTimedChild(std::string_view name,
                                    int64_t duration_us) {
  TraceSpan* child = StartChild(name);
  child->end_ = child->start_;
  child->start_ -= std::chrono::microseconds(duration_us);
  child->ended_ = true;
  return child;
}

void TraceSpan::End() {
  if (ended_) return;
  end_ = Clock::now();
  ended_ = true;
}

int64_t TraceSpan::duration_us() const {
  Clock::time_point end = ended_ ? end_ : Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
      .count();
}

void TraceSpan::AddAttr(std::string_view key, int64_t value) {
  attrs_.push_back({std::string(key),
                    StrFormat("%lld", static_cast<long long>(value)), false});
}

void TraceSpan::AddAttr(std::string_view key, double value) {
  attrs_.push_back({std::string(key), StrFormat("%.3f", value), false});
}

void TraceSpan::AddAttr(std::string_view key, std::string_view value) {
  attrs_.push_back({std::string(key), std::string(value), true});
}

const TraceSpan* TraceSpan::FindChild(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->name_ == name) return c.get();
  }
  return nullptr;
}

void TraceSpan::RenderJson(JsonWriter* w) const {
  w->BeginObject();
  w->KV("name", std::string_view(name_));
  w->KV("duration_us", duration_us());
  if (!attrs_.empty()) {
    w->Key("attrs").BeginObject();
    for (const Attr& a : attrs_) {
      w->Key(a.key);
      if (a.quoted) {
        w->Value(std::string_view(a.value));
      } else {
        w->RawNumber(a.value);  // pre-formatted by AddAttr
      }
    }
    w->EndObject();
  }
  if (!children_.empty()) {
    w->Key("children").BeginArray();
    for (const auto& c : children_) c->RenderJson(w);
    w->EndArray();
  }
  w->EndObject();
}

std::string Trace::RenderJson() {
  root_.End();
  JsonWriter w;
  root_.RenderJson(&w);
  std::string out = w.str();
  out += '\n';
  return out;
}

}  // namespace svx
