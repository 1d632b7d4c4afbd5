#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

uint64_t SpanRecorder::Begin(std::string name, uint64_t parent) {
  if (!enabled_) return 0;
  const Clock::time_point now = Clock::now();
  return Add(std::move(name), parent, 0, now, now);
}

void SpanRecorder::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end = Clock::now();
}

uint64_t SpanRecorder::Add(std::string name, uint64_t parent,
                           uint64_t request, Clock::time_point begin,
                           Clock::time_point end, int32_t shard) {
  if (!enabled_) return 0;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.shard = shard;
  span.name = std::move(name);
  span.begin = begin;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::AddTrace(const obs::QueryTrace& trace, uint64_t parent,
                            uint64_t request) {
  if (!enabled_) return;
  const std::vector<obs::TraceSpan> stages = trace.spans();
  std::map<int32_t, std::vector<uint64_t>> dispatch_by_shard;
  // Service-side stages first, so executor stages can find their dispatch.
  for (const obs::TraceSpan& s : stages) {
    const char* layer = nullptr;
    switch (s.stage) {
      case obs::Stage::kQueue:
      case obs::Stage::kDispatch:
      case obs::Stage::kMerge:
      case obs::Stage::kNotify:
        layer = "service.";
        break;
      case obs::Stage::kIngest:
        layer = "database.";
        break;
      default:
        continue;
    }
    const uint64_t id = Add(std::string(layer) + obs::StageName(s.stage),
                            parent, request, s.begin, s.end, s.shard);
    if (s.stage == obs::Stage::kDispatch) {
      dispatch_by_shard[s.shard].push_back(id);
    }
  }
  for (const obs::TraceSpan& s : stages) {
    if (s.stage != obs::Stage::kPlan && s.stage != obs::Stage::kBound &&
        s.stage != obs::Stage::kEngineBuild &&
        s.stage != obs::Stage::kEvaluate) {
      continue;
    }
    uint64_t owner = parent;
    for (uint64_t d : dispatch_by_shard[s.shard]) {
      const Span& ds = spans_[d - 1];
      if (ds.begin <= s.begin && s.end <= ds.end) owner = d;
    }
    Add(std::string("executor.") + obs::StageName(s.stage), owner, request,
        s.begin, s.end, s.shard);
  }
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"shard\": %d, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.shard,
                 s.name.c_str(),
                 std::chrono::duration<double, std::micro>(s.begin - epoch_)
                     .count(),
                 std::chrono::duration<double, std::micro>(s.end - epoch_)
                     .count(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string SpanRecorder::Table() const {
  // Self time: the span's duration minus the union of its children's
  // intervals clipped to it.
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children[spans_[i].parent - 1].push_back(i);
  }
  struct Row {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    iv.clear();
    for (size_t c : children[i]) {
      const auto b = std::max(s.begin, spans_[c].begin);
      const auto e = std::min(s.end, spans_[c].end);
      if (b < e) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point cur_b{};
    Clock::time_point cur_e{};
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) covered += Seconds(cur_b, cur_e);
      cur_b = b;
      cur_e = e;
      open = true;
    }
    if (open) covered += Seconds(cur_b, cur_e);
    Row& row = rows[s.name];
    ++row.count;
    row.total_ms += Seconds(s.begin, s.end) * 1e3;
    row.self_ms += (Seconds(s.begin, s.end) - covered) * 1e3;
  }
  std::string out = "span                                   count     total_ms      self_ms\n";
  char buf[160];
  for (const auto& [name, row] : rows) {
    std::snprintf(buf, sizeof(buf), "%-36s %8llu %12.3f %12.3f\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_ms, row.self_ms);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
