#include "perfbench/src/probes.h"

#include <algorithm>
#include <cstdio>

#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"

namespace perfbench {

TimedCompile CompileTimed(nimble::ir::Module mod,
                          const nimble::core::CompileOptions& options) {
  ScopedSpan span("core.compile");
  Clock::time_point t0 = Clock::now();
  TimedCompile out;
  out.result = nimble::core::Compile(mod, options);
  out.ms = SecondsSince(t0) * 1e3;
  return out;
}

void ReportCompile(MetricSink* sink, const std::string& model,
                   const TimedCompile& compile) {
  sink->Set("core.compile_ms." + model, compile.ms, "ms");
  sink->Set("pass.fused_groups." + model, compile.result.fusion.groups_created,
            "count");
  sink->Set("pass.storage_allocs_after." + model,
            compile.result.memory.storage_allocs_after, "count");
}

DispatchTotals ReadDispatch(
    const std::vector<std::shared_ptr<nimble::vm::Executable>>& execs) {
  DispatchTotals t;
  for (const auto& exec : execs) {
    if (exec == nullptr) continue;
    const auto& s = exec->dispatch_table.stats();
    t.specialized += s.specialized_calls.load(std::memory_order_relaxed);
    t.fallback += s.fallback_calls.load(std::memory_order_relaxed);
    t.blocked += s.blocked_calls.load(std::memory_order_relaxed);
    t.parallel += s.parallel_calls.load(std::memory_order_relaxed);
  }
  return t;
}

void ReportCodegen(MetricSink* sink, const DispatchTotals& before,
                   const DispatchTotals& after) {
  int64_t spec = after.specialized - before.specialized;
  int64_t fallback = after.fallback - before.fallback;
  sink->Set("codegen.specialized_ratio",
            spec + fallback > 0
                ? static_cast<double>(spec) / static_cast<double>(spec + fallback)
                : 0.0,
            "ratio");
  sink->Set("codegen.blocked_calls",
            static_cast<double>(after.blocked - before.blocked), "count");
  sink->Set("codegen.parallel_calls",
            static_cast<double>(after.parallel - before.parallel), "count");
}

AllocTotals SumScopes(const std::vector<nimble::obs::AllocScopeSample>& scopes,
                      const std::string& prefix) {
  AllocTotals t;
  for (const auto& s : scopes) {
    if (s.scope.rfind(prefix, 0) != 0) continue;
    t.alloc_calls += s.alloc_calls;
    t.system_allocs += s.system_allocs;
    t.pool_hits += s.pool_hits;
    t.peak_bytes += s.peak_bytes;
  }
  return t;
}

void ReportRuntime(MetricSink* sink, const AllocTotals& before,
                   const AllocTotals& after) {
  int64_t calls = after.alloc_calls - before.alloc_calls;
  int64_t hits = after.pool_hits - before.pool_hits;
  sink->Set("runtime.pool_hit_ratio",
            calls > 0 ? static_cast<double>(hits) / static_cast<double>(calls)
                      : 0.0,
            "ratio");
  sink->Set("runtime.system_allocs",
            static_cast<double>(after.system_allocs - before.system_allocs),
            "count");
  sink->Set("runtime.peak_mb",
            static_cast<double>(after.peak_bytes) / (1024.0 * 1024.0), "MB");
}

void ReportLatency(MetricSink* sink, const std::string& p50_name,
                   const std::string& p99_name,
                   const std::vector<double>& samples_ms) {
  Tail tail = TailPercentile(samples_ms, 99.0);
  sink->Set(p50_name, Median(samples_ms), "ms");
  sink->Set(p99_name, tail.value, "ms");
  std::printf("  %s: median of %zu samples; %s: p%g of %zu samples (%zu "
              "beyond)\n",
              p50_name.c_str(), samples_ms.size(), p99_name.c_str(),
              tail.percentile, tail.samples, tail.beyond);
}

void RunTelemetryAB(MetricSink* sink, int rounds,
                    const std::function<double(bool, bool)>& run_arm) {
  struct Arm {
    bool telemetry;
    bool spans;
  };
  const Arm arms[3] = {{true, false}, {false, false}, {true, true}};
  std::vector<double> obs_pct, trace_pct;
  SpanRecorder& rec = SpanRecorder::Global();
  const bool spans_were_on = rec.enabled();
  for (int r = 0; r < rounds; ++r) {
    double cost[3] = {0.0, 0.0, 0.0};
    for (int k = 0; k < 3; ++k) {
      int a = (r + k) % 3;  // rotate which arm runs first
      nimble::obs::SetMemoryTelemetryEnabled(arms[a].telemetry);
      rec.set_enabled(arms[a].spans);
      cost[a] = run_arm(arms[a].telemetry, arms[a].spans);
    }
    nimble::obs::SetMemoryTelemetryEnabled(true);
    rec.set_enabled(spans_were_on);
    obs_pct.push_back((cost[0] / cost[1] - 1.0) * 100.0);
    trace_pct.push_back((cost[2] / cost[0] - 1.0) * 100.0);
  }
  sink->Set("obs.overhead_pct", Median(obs_pct), "%");
  sink->Set("obs.overhead_pct.iqr", InterquartileRange(obs_pct), "%");
  sink->Set("bench.trace_overhead_pct", Median(trace_pct), "%");
  std::printf("  telemetry A/B over %d rounds: obs overhead %.2f%% (IQR "
              "%.2f%%), benchmark tracing overhead %.2f%%\n",
              rounds, Median(obs_pct), InterquartileRange(obs_pct),
              Median(trace_pct));
}

}  // namespace perfbench
