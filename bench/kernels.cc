// Tiled/tuned/parallel dense kernel benchmark.
//
// Compares, per shape, the residue-dispatch path the serving layer used
// before cache blocking (MicroTile8F32, which drops to scalar rows past
// k=1024) against the cache-blocked kernel under the default config, the
// tuner-chosen config, and — when the machine offers more than one core —
// the kernel-pool-partitioned variant. All four produce bit-identical
// outputs (tests/test_kernels.cc); this binary only measures them.
//
//   bench_kernels            # table on stdout
//   bench_kernels --json     # also writes BENCH_kernels.json for CI guards
//
// CI reads BENCH_kernels.json and asserts (a) the best blocked variant wins
// by >= 1.5x on at least one large shape (K=N>=1024, M>=8 — the regime the
// old path served at scalar speed), and (b) the tuned config is no slower
// than the default on at least half the shapes.
//
// A second table times the shapes the served LSTMs run (M = 1, 4, 8 rows
// against their gate weights) on the two routes a constant weight can
// take: the [N, K] residue-dispatch tiles and the packed-panel kernel
// (RunPanels, what compiled models use), both single-threaded and
// bit-identical. A third column times the same shape as the fused_dense
// kernel the served LSTM step runs on panels — dense plus its add + bias
// epilogue — so the epilogue's cost is the gap to the packed column.
// They land in BENCH_kernels.json under "served"; no CI gate reads them.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/codegen/dispatch.h"
#include "src/codegen/parallel.h"
#include "src/codegen/tuner.h"
#include "src/kernels/registry.h"
#include "src/runtime/ndarray.h"
#include "src/support/rng.h"

using namespace nimble;  // NOLINT

namespace {

struct ShapeResult {
  int64_t m, n, k;
  bool large;  // the guarded regime
  double dispatch_s, blocked_s, tuned_s, parallel_s;
  codegen::DenseConfig tuned_config;
};

ShapeResult RunShape(int64_t m, int64_t n, int64_t k, bool large,
                     codegen::KernelPool* pool) {
  support::Rng rng(7);
  runtime::NDArray x =
      runtime::NDArray::Empty({m, k}, runtime::DataType::Float32());
  runtime::NDArray w =
      runtime::NDArray::Empty({n, k}, runtime::DataType::Float32());
  runtime::NDArray out =
      runtime::NDArray::Empty({m, n}, runtime::DataType::Float32());
  x.FillUniform(rng);
  w.FillUniform(rng);

  codegen::DenseDispatchTable table(codegen::kTileRows);
  codegen::DenseConfig default_config;
  // Tuner pick for this exact shape (repeats kept low: the bench itself
  // re-measures the winner interleaved below).
  codegen::DenseConfig tuned =
      codegen::TuneDenseStatic(m, n, k, /*repeats=*/1).front().config;

  const float* xp = x.data<float>();
  const float* wp = w.data<float>();
  float* op = out.data<float>();
  std::vector<std::function<void()>> systems = {
      [&] { table.Run(xp, wp, op, m, n, k); },
      [&] { codegen::DenseBlocked(xp, wp, op, m, n, k, default_config); },
      [&] { codegen::DenseBlocked(xp, wp, op, m, n, k, tuned); },
      [&] { codegen::DenseBlockedParallel(xp, wp, op, m, n, k, tuned, pool); },
  };
  std::vector<double> best = bench::MeasureInterleaved(systems, /*rounds=*/4);
  return ShapeResult{m,       n,       k,       large,  best[0],
                     best[1], best[2], best[3], tuned};
}

struct ServedResult {
  int64_t m, n, k;
  double residue_s, packed_s, fused_s;
};

ServedResult RunServedShape(int64_t m, int64_t n, int64_t k) {
  support::Rng rng(11);
  runtime::NDArray x =
      runtime::NDArray::Empty({m, k}, runtime::DataType::Float32());
  runtime::NDArray w =
      runtime::NDArray::Empty({n, k}, runtime::DataType::Float32());
  runtime::NDArray out =
      runtime::NDArray::Empty({m, n}, runtime::DataType::Float32());
  x.FillUniform(rng);
  w.FillUniform(rng);
  runtime::NDArray panels = codegen::PackDenseWeight(w);
  codegen::DenseDispatchTable table(codegen::kTileRows);
  const float* xp = x.data<float>();
  float* op = out.data<float>();
  // fused_dense as the served step calls it: out = x·wᵀ + other + bias.
  runtime::NDArray other =
      runtime::NDArray::Empty({m, n}, runtime::DataType::Float32());
  runtime::NDArray bias =
      runtime::NDArray::Empty({n}, runtime::DataType::Float32());
  other.FillUniform(rng);
  bias.FillUniform(rng);
  ir::Attrs fused_attrs;
  fused_attrs.Set("steps", std::vector<int64_t>{0, 1, 2, 0, 3, 3});
  fused_attrs.Set(codegen::kPanelWeightAttr, n);
  kernels::KernelContext ctx;
  ctx.dense_dispatch = &table;
  const std::vector<runtime::NDArray> fused_in = {x, panels, other, bias};
  const std::vector<runtime::NDArray> fused_out = {out};
  // One call is a few microseconds: time batches of calls.
  const int reps = static_cast<int>(
      std::max<int64_t>(1, (int64_t{1} << 24) / (m * n * k)));
  std::vector<std::function<void()>> systems = {
      [&] {
        for (int i = 0; i < reps; ++i) {
          table.Run(xp, w.data<float>(), op, m, n, k);
        }
      },
      [&] {
        for (int i = 0; i < reps; ++i) {
          table.RunPanels(xp, panels.data<float>(), op, m, n, k, nullptr);
        }
      },
      [&] {
        for (int i = 0; i < reps; ++i) {
          kernels::RunKernel("fused_dense", fused_in, fused_out, fused_attrs,
                             ctx);
        }
      },
  };
  std::vector<double> best = bench::MeasureInterleaved(systems, /*rounds=*/8);
  return ServedResult{m, n, k, best[0] / reps, best[1] / reps, best[2] / reps};
}

}  // namespace

int main(int argc, char** argv) {
  bool write_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      write_json = true;
    } else {
      std::fprintf(stderr, "bench_kernels: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  codegen::KernelPool* pool = codegen::KernelPool::Global();
  int threads = pool != nullptr ? pool->num_threads() : 1;

  bench::PrintHeader(
      "Tiled + tuned + parallel dense kernels vs the residue-dispatch path\n"
      "(dispatch = pre-blocking serving path; all variants bit-identical)");
  std::printf("kernel pool threads: %d\n\n", threads);
  std::printf("%-20s %11s %11s %11s %11s %12s %8s\n", "shape (MxNxK)",
              "dispatch", "blocked", "tuned", "parallel", "tuned cfg",
              "speedup");

  // Large shapes (K=N>=1024, M>=8) are the guarded regime: past k=1024 the
  // old tile kernel runs scalar rows, the blocked kernel stays vectorized.
  struct Shape {
    int64_t m, n, k;
    bool large;
  };
  const Shape shapes[] = {
      {8, 64, 64, false},     {8, 256, 256, false},  {1, 1024, 1024, false},
      {8, 1024, 1024, true},  {8, 1024, 2048, true}, {8, 2048, 2048, true},
      {16, 2048, 2048, true},
  };

  std::vector<ShapeResult> results;
  for (const Shape& s : shapes) {
    ShapeResult r = RunShape(s.m, s.n, s.k, s.large, pool);
    results.push_back(r);
    double best_blocked = std::min({r.blocked_s, r.tuned_s, r.parallel_s});
    std::printf("%4lldx%-5lldx%-8lld %9.3fms %9.3fms %9.3fms %9.3fms %12s %7.2fx\n",
                static_cast<long long>(r.m), static_cast<long long>(r.n),
                static_cast<long long>(r.k), r.dispatch_s * 1e3,
                r.blocked_s * 1e3, r.tuned_s * 1e3, r.parallel_s * 1e3,
                r.tuned_config.ToString().c_str(),
                r.dispatch_s / best_blocked);
  }

  double max_large_speedup = 0.0;
  int tuned_wins = 0;
  for (const ShapeResult& r : results) {
    double best_blocked = std::min({r.blocked_s, r.tuned_s, r.parallel_s});
    if (r.large) {
      max_large_speedup =
          std::max(max_large_speedup, r.dispatch_s / best_blocked);
    }
    if (r.tuned_s <= r.blocked_s) ++tuned_wins;
  }
  bench::PrintRule();
  std::printf(
      "best speedup on large shapes: %.2fx (target >= 1.5x); tuned config no\n"
      "slower than default on %d/%zu shapes (target >= half)\n",
      max_large_speedup, tuned_wins, results.size());

  std::printf(
      "\nServed shapes, constant weights: [N, K] residue tiles vs packed "
      "panels\n(single-threaded, bit-identical; %s panel kernels)\n",
      codegen::BestPanelKernels().name);
  std::printf("%-20s %11s %11s %8s %11s\n", "shape (MxNxK)", "residue",
              "packed", "speedup", "fused");
  std::vector<ServedResult> served;
  for (int64_t m : {1, 4, 8}) {
    for (auto [n, k] : {std::pair<int64_t, int64_t>{512, 64},
                        {512, 128},
                        {1024, 128},
                        {1024, 256}}) {
      ServedResult r = RunServedShape(m, n, k);
      served.push_back(r);
      std::printf("%4lldx%-5lldx%-8lld %9.2fus %9.2fus %7.2fx %9.2fus\n",
                  static_cast<long long>(m), static_cast<long long>(n),
                  static_cast<long long>(k), r.residue_s * 1e6,
                  r.packed_s * 1e6, r.residue_s / r.packed_s,
                  r.fused_s * 1e6);
    }
  }

  if (write_json) {
    FILE* f = std::fopen("BENCH_kernels.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"threads\": %d,\n  \"max_large_speedup\": %.3f,\n"
                 "  \"tuned_wins\": %d,\n  \"shapes\": [\n",
                 threads, max_large_speedup, tuned_wins);
    for (size_t i = 0; i < results.size(); ++i) {
      const ShapeResult& r = results[i];
      std::fprintf(
          f,
          "    {\"m\": %lld, \"n\": %lld, \"k\": %lld, \"large\": %s,\n"
          "     \"dispatch_ms\": %.4f, \"blocked_ms\": %.4f, "
          "\"tuned_ms\": %.4f, \"parallel_ms\": %.4f,\n"
          "     \"tuned_config\": \"%s\", \"speedup\": %.3f}%s\n",
          static_cast<long long>(r.m), static_cast<long long>(r.n),
          static_cast<long long>(r.k), r.large ? "true" : "false",
          r.dispatch_s * 1e3, r.blocked_s * 1e3, r.tuned_s * 1e3,
          r.parallel_s * 1e3, r.tuned_config.ToString().c_str(),
          r.dispatch_s / std::min({r.blocked_s, r.tuned_s, r.parallel_s}),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"packed_isa\": \"%s\",\n  \"served\": [\n",
                 codegen::BestPanelKernels().name);
    for (size_t i = 0; i < served.size(); ++i) {
      const ServedResult& r = served[i];
      std::fprintf(f,
                   "    {\"m\": %lld, \"n\": %lld, \"k\": %lld, "
                   "\"residue_us\": %.3f, \"packed_us\": %.3f, "
                   "\"speedup\": %.3f, \"fused_dense_us\": %.3f}%s\n",
                   static_cast<long long>(r.m), static_cast<long long>(r.n),
                   static_cast<long long>(r.k), r.residue_s * 1e6,
                   r.packed_s * 1e6, r.residue_s / r.packed_s,
                   r.fused_s * 1e6, i + 1 < served.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_kernels.json\n");
  }
  return 0;
}
