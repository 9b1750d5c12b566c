// Table 4 reproduction: overhead of handling dynamism at runtime.
//
// Paper: BERT at fixed sequence length 128, TVM static runtime vs Nimble,
// with Nimble's latency split into kernel invocations vs all other
// instructions (shape functions, dynamic allocation, dispatch). Paper finds
// TVM 5-25% faster with a small absolute gap.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/static_runtime.h"
#include "src/core/compiler.h"
#include "src/models/bert.h"
#include "src/models/workloads.h"
#include "src/vm/vm.h"

using namespace nimble;  // NOLINT

int main() {
  bench::PrintHeader(
      "Table 4: BERT latency at static sequence length 128 — static graph\n"
      "runtime (TVM-style) vs Nimble VM, with kernel/other split");

  models::BERTConfig config;
  config.num_layers = 4;
  config.hidden = 256;
  config.num_heads = 4;
  config.ffn_hidden = 1024;
  config.vocab = 2000;
  auto model = models::BuildBERT(config);

  const int64_t kSeqLen = 128;
  support::Rng rng(9);
  auto ids = models::RandomTokenIds(kSeqLen, config.vocab, rng);

  baselines::StaticBERTRuntime static_rt(model, kSeqLen);
  ir::Module mod = model.module;
  auto compiled = core::Compile(mod);
  vm::VirtualMachine machine(compiled.executable);
  auto ids_tensor = runtime::MakeTensor(
      runtime::NDArray::FromVector(ids, {static_cast<int64_t>(ids.size())}));
  auto times = bench::MeasureInterleaved(
      {[&] { static_rt.Run(ids); },
       [&] { machine.Invoke("main", {ids_tensor}); }},
      /*rounds=*/5);
  double static_ms = times[0] * 1e3;
  double nimble_ms = times[1] * 1e3;

  // Profile the kernel/other split.
  machine.EnableProfiling(true);
  machine.mutable_profile().Reset();
  machine.Invoke("main", {ids_tensor});
  const vm::VMProfile& profile = machine.profile();
  double total_prof_ms = profile.total_nanos / 1e6;
  double kernel_frac =
      static_cast<double>(profile.kernel_nanos) / profile.total_nanos;
  double kernel_ms = nimble_ms * kernel_frac;
  double other_ms = nimble_ms - kernel_ms;

  std::printf("%-10s %14s %14s %14s %12s\n", "device", "static lat.",
              "Nimble lat.", "kernel lat.", "others");
  std::printf("%-10s %12.2fms %12.2fms %12.2fms %10.2fms\n", "host-cpu",
              static_ms, nimble_ms, kernel_ms, other_ms);
  bench::PrintRule();
  std::printf("static runtime is %.1f%% faster (paper: 5-25%%); "
              "non-kernel fraction %.1f%%\n",
              (nimble_ms - static_ms) / nimble_ms * 100.0,
              (1.0 - kernel_frac) * 100.0);
  std::printf("profiled: %lld instructions, shape functions %.3f ms "
              "(profiled total %.2f ms)\n",
              static_cast<long long>(profile.instructions),
              profile.shape_func_nanos / 1e6, total_prof_ms);

  // Where the kernel time goes: the profiled run's heaviest packed entries.
  std::vector<vm::VMProfile::PackedRow> rows = profile.per_packed;
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.nanos > b.nanos; });
  std::printf("heaviest packed entries (profiled run):\n");
  for (size_t i = 0; i < rows.size() && i < 6 && rows[i].calls > 0; ++i) {
    std::printf("  %-24s %5lld calls %9.3f ms\n", rows[i].name.c_str(),
                static_cast<long long>(rows[i].calls), rows[i].nanos / 1e6);
  }
  return 0;
}
