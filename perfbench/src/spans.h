// The benchmark's own span recorder for the traced run.
//
// Spans are recorded from the benchmark's files only, around each call it
// makes into a layer's public API (compile, server start, admission, HTTP
// requests, VM invokes, variant compiles, allocations), plus the per-stage
// stamps a completion callback's TraceContext already carries. They stay
// in memory and are written out once, as a Chrome trace, when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t request = -1;  // request the span belongs to, -1 = none
  uint32_t tid = 0;
};

class SpanRecorder {
 public:
  /// The process-wide recorder; disabled (records nothing) until enabled.
  static SpanRecorder& Global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Reserves an id for a span whose children are recorded before it ends.
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span under `id` (from NewId). Thread-safe.
  void Record(int64_t id, const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t request);
  /// Records a finished span under a fresh id and returns the id.
  int64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                 int64_t parent, int64_t request);

  std::vector<Span> Snapshot() const;

  /// Innermost open ScopedSpan on the calling thread (0 = none).
  static int64_t CurrentParent();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records a span covering its own lifetime, nested under the calling
/// thread's innermost open ScopedSpan. A no-op while the recorder is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  const char* name_;
  int64_t request_;
  int64_t id_ = 0;
  int64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Self time of each span (same order as `spans`): its duration minus the
/// part of its interval that the union of its children's intervals covers.
/// Children may nest further and may overlap one another (requests running
/// concurrently under one phase); a child sticking out of its parent only
/// counts where it overlaps the parent.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Writes `spans` as a Chrome trace-event JSON file (one complete "X"
/// event per span, with id/parent/request/self time in args) and
/// `metadata_json` (a JSON object) under "metadata". False on I/O error.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadata_json);

}  // namespace perfbench
