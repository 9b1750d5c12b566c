// Per-layer probes shared by the workloads. Each reads only what a layer's
// public API already returns (CompileResult, dispatch-table stats,
// allocator stats) or times the benchmark's own call into the layer; none
// adds instrumentation to the program.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/core/compiler.h"
#include "src/obs/memory.h"
#include "src/vm/executable.h"

namespace perfbench {

/// core::Compile of `mod`, timed, inside a "core.compile" span.
struct TimedCompile {
  nimble::core::CompileResult result;
  double ms = 0.0;
};
TimedCompile CompileTimed(nimble::ir::Module mod,
                          const nimble::core::CompileOptions& options = {});

/// Sets core.compile_ms.<model>, pass.fused_groups.<model> and
/// pass.storage_allocs_after.<model>.
void ReportCompile(MetricSink* sink, const std::string& model,
                   const TimedCompile& compile);

/// Dense-dispatch counters summed over executables' dispatch tables.
struct DispatchTotals {
  int64_t specialized = 0;
  int64_t fallback = 0;
  int64_t blocked = 0;
  int64_t parallel = 0;
};
DispatchTotals ReadDispatch(
    const std::vector<std::shared_ptr<nimble::vm::Executable>>& execs);
/// Sets the codegen.* metrics from the counter change over a phase.
void ReportCodegen(MetricSink* sink, const DispatchTotals& before,
                   const DispatchTotals& after);

/// Allocator counters summed over allocator scopes.
struct AllocTotals {
  int64_t alloc_calls = 0;
  int64_t system_allocs = 0;
  int64_t pool_hits = 0;
  int64_t peak_bytes = 0;
};
AllocTotals SumScopes(const std::vector<nimble::obs::AllocScopeSample>& scopes,
                      const std::string& prefix);
/// Sets runtime.pool_hit_ratio, runtime.system_allocs (both over the
/// phase) and runtime.peak_mb (high-water mark at the end).
void ReportRuntime(MetricSink* sink, const AllocTotals& before,
                   const AllocTotals& after);

/// Sets `p50_name` and `p99_name` (ms) from latency samples in ms; the
/// tail follows the reporting rule and both are printed with the sample
/// count.
void ReportLatency(MetricSink* sink, const std::string& p50_name,
                   const std::string& p99_name,
                   const std::vector<double>& samples_ms);

/// The interleaved telemetry A/B of the traced run. Each arm runs a fixed
/// piece of work and returns its cost (seconds per unit of work): arm 0
/// with the program's telemetry on, arm 1 with it off, arm 2 with it on
/// and the benchmark's own spans recording. Rounds rotate the arm order.
/// The process-wide telemetry (the memory ledgers) is switched here; each
/// arm sets its servers' tracing and step journal from `telemetry`.
/// Sets obs.overhead_pct (median over rounds of arm 0 vs arm 1) with its
/// interquartile range obs.overhead_pct.iqr, and bench.trace_overhead_pct
/// (median of arm 2 vs arm 0).
void RunTelemetryAB(MetricSink* sink, int rounds,
                    const std::function<double(bool telemetry, bool spans)>&
                        run_arm);

}  // namespace perfbench
