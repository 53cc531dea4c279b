#include "perfbench/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "src/obs/json.h"
#include "src/perf/timer.h"

namespace perfbench {

const char* SpanNameStr(SpanName n) {
  switch (n) {
    case SpanName::kCast:
      return "app.cast";
    case SpanName::kSend:
      return "app.send";
    case SpanName::kFlush:
      return "app.flush";
    case SpanName::kPoll:
      return "net.poll";
    case SpanName::kDeliverCb:
      return "app.deliver_cb";
    case SpanName::kNetSend:
      return "net.send";
    case SpanName::kNetBroadcast:
      return "net.broadcast";
    case SpanName::kNetFlush:
      return "net.flush";
    case SpanName::kNetDeliver:
      return "net.deliver";
    case SpanName::kCount:
      break;
  }
  return "?";
}

SpanRecorder::SpanRecorder(size_t keep, Clock clock)
    : clock_(clock != nullptr ? clock : &ensemble::NowNanos), keep_(keep) {
  stack_.reserve(16);
  kept_.reserve(keep);
}

void SpanRecorder::Begin(SpanName name, uint64_t cast_id) {
  Open o;
  o.span.id = next_id_++;
  o.span.parent = stack_.empty() ? 0 : stack_.back().span.id;
  o.span.name = name;
  o.span.cast_id = cast_id;
  o.span.start_ns = clock_();
  stack_.push_back(o);
}

void SpanRecorder::Annotate(uint64_t cast_id) {
  if (!stack_.empty()) {
    stack_.back().span.cast_id = cast_id;
  }
}

uint64_t SpanRecorder::End() {
  Open o = stack_.back();
  stack_.pop_back();
  o.span.end_ns = clock_();
  uint64_t dur = o.span.end_ns - o.span.start_ns;
  uint64_t self = dur > o.child_ns ? dur - o.child_ns : 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  Totals& t = totals_[static_cast<size_t>(o.span.name)];
  t.count++;
  t.total_ns += dur;
  t.self_ns += self;
  if (kept_.size() < keep_) {
    kept_.push_back(o.span);
  }
  return self;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); i++) {
    if (spans[i].parent != 0) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (size_t c : it->second) {
        uint64_t a = std::max(spans[c].start_ns, s.start_ns);
        uint64_t b = std::min(spans[c].end_ns, s.end_ns);
        if (a < b) {
          iv.emplace_back(a, b);
        }
      }
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_a = 0;
    uint64_t cur_b = 0;
    bool have = false;
    for (const auto& [a, b] : iv) {
      if (have && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (have) {
        covered += cur_b - cur_a;
      }
      cur_a = a;
      cur_b = b;
      have = true;
    }
    if (have) {
      covered += cur_b - cur_a;
    }
    self[i] = s.end_ns - s.start_ns - covered;
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<Span>& spans, uint64_t recorded) {
  std::vector<uint64_t> self = SelfTimes(spans);
  ensemble::obs::JsonWriter w;
  w.BeginObject();
  w.KV("workload", workload);
  w.KV("spans_recorded", recorded);
  w.KV("spans_kept", static_cast<uint64_t>(spans.size()));
  w.Key("spans");
  w.BeginArray();
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    w.BeginObject();
    w.KV("id", s.id);
    w.KV("parent", s.parent);
    w.KV("name", SpanNameStr(s.name));
    w.KV("start_ns", s.start_ns);
    w.KV("end_ns", s.end_ns);
    w.KV("self_ns", self[i]);
    w.KV("cast_id", s.cast_id);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::string json = w.Take();
  std::string error;
  if (!ensemble::obs::ValidateJson(json, &error)) {
    std::fprintf(stderr, "perfbench: invalid span JSON: %s\n", error.c_str());
    return false;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
