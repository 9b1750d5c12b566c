#include "perfbench/src/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "perfbench/src/common.h"

namespace perfbench {

namespace {

thread_local int64_t tls_parent = 0;

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tag = next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

}  // namespace

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

void SpanRecorder::Record(int64_t id, const char* name, int64_t start_ns,
                          int64_t end_ns, int64_t parent, int64_t request) {
  if (!enabled()) return;
  Span span{name, start_ns, end_ns, id, parent, request, ThreadTag()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

int64_t SpanRecorder::Record(const char* name, int64_t start_ns,
                             int64_t end_ns, int64_t parent,
                             int64_t request) {
  if (!enabled()) return 0;
  int64_t id = NewId();
  Record(id, name, start_ns, end_ns, parent, request);
  return id;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

int64_t SpanRecorder::CurrentParent() { return tls_parent; }

ScopedSpan::ScopedSpan(const char* name, int64_t request)
    : name_(name), request_(request) {
  SpanRecorder& rec = SpanRecorder::Global();
  if (!rec.enabled()) return;
  id_ = rec.NewId();
  parent_ = tls_parent;
  tls_parent = id_;
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  int64_t end = NowNs();
  tls_parent = parent_;
  SpanRecorder::Global().Record(id_, name_, start_ns_, end, parent_,
                                request_);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end() && it->second != i) {
      children[it->second].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    int64_t duration = std::max<int64_t>(0, s.end_ns - s.start_ns);
    intervals.clear();
    for (size_t c : children[i]) {
      int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = duration - covered;
  }
  return self;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadata_json) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfTimesNs(spans);
  int64_t origin = spans.empty() ? 0 : spans[0].start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"request\":%lld,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<double>(self[i]) / 1e3);
  }
  std::fprintf(f, "\n],\"metadata\":%s}\n", metadata_json.c_str());
  bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
