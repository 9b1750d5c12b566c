// Shared plumbing for the perfbench workloads: command-line options, the
// metric sink every workload reports into, outcome counting, and small
// helpers (clocks, peak RSS, bitwise tensor comparison).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/runtime/ndarray.h"
#include "src/runtime/object.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its Chrome trace into.
  std::string out_dir = ".";
};

/// The traced run spends this share of --seconds on the workload's own
/// phases and the rest on the interleaved telemetry A/B.
constexpr double kTracedWorkShare = 0.6;
inline double WorkSeconds(const Options& opt) {
  return opt.trace ? kTracedWorkShare * opt.seconds : opt.seconds;
}
inline double ABSeconds(const Options& opt) {
  return opt.trace ? (1.0 - kTracedWorkShare) * opt.seconds : 0.0;
}

/// Metrics by name, each with its unit; printed as the result's "metrics".
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Operations attempted and failed (refused, threw, transport error, or
/// wrong output), plus whether every checked output was correct.
/// Thread-safe counters: client and completion threads record into it.
struct Outcome {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> wrong{0};

  void Ok() { attempted.fetch_add(1, std::memory_order_relaxed); }
  void Fail() {
    attempted.fetch_add(1, std::memory_order_relaxed);
    failed.fetch_add(1, std::memory_order_relaxed);
  }
  /// An output that differs from its reference: a failed operation that
  /// also makes the run incorrect.
  void Wrong() {
    Fail();
    wrong.fetch_add(1, std::memory_order_relaxed);
  }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Prints `what` to stderr and ends the process with a nonzero code and no
/// result line: for states the run cannot continue from safely.
[[noreturn]] void Fatal(const char* what);

/// getrusage max resident set size of this process, in MiB.
double PeakRssMb();

bool BitIdentical(const nimble::runtime::NDArray& a,
                  const nimble::runtime::NDArray& b);

/// Largest absolute element difference of two float32 tensors of equal
/// shape; +inf when the shapes differ.
double MaxAbsDiff(const nimble::runtime::NDArray& a,
                  const nimble::runtime::NDArray& b);

/// Per-request VM arguments of the LSTM models: the [len, width] sequence
/// and its length as an int64 scalar.
std::vector<nimble::runtime::ObjectRef> LSTMArgs(
    const nimble::runtime::NDArray& x, int64_t len);

/// The workloads. Each sets its metrics into `sink` and its operation
/// counts into `outcome`; a nonzero return is a set-up error.
int RunServeProdMix(const Options& opt, MetricSink* sink, Outcome* outcome);
int RunHttpShortLong(const Options& opt, MetricSink* sink, Outcome* outcome);

}  // namespace perfbench
