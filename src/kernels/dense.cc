// nn.dense kernel: routes through the caller's dispatch table
// (KernelContext::dense_dispatch — the executable's table inside the VM) so
// dynamic-M workloads exercise residue dispatch (§4.5). A weight the
// compiler packed into panels (kPanelWeightAttr set) takes RunPanels;
// anything else takes the [N, K] route.
#include "src/codegen/dispatch.h"
#include "src/kernels/registry.h"

namespace nimble {
namespace kernels {

namespace {

/// Straightforward reference implementation, used for correctness tests and
/// as the registered "library" kernel that dispatch can select against
/// compiled kernels.
void DenseReference(const std::vector<NDArray>& in,
                    const std::vector<NDArray>& out, const ir::Attrs&) {
  NIMBLE_CHECK_EQ(in.size(), 2u);
  const NDArray& x = in[0];
  const NDArray& w = in[1];
  const NDArray& y = out[0];
  int64_t m = x.shape()[0], k = x.shape()[1], n = w.shape()[0];
  const float* px = x.data<float>();
  const float* pw = w.data<float>();
  float* py = y.data<float>();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += px[i * k + kk] * pw[j * k + kk];
      py[i * n + j] = acc;
    }
  }
}

}  // namespace

void RegisterDenseKernels() {
  KernelRegistry::Global()->Register(
      "nn.dense",
      ContextKernelFn([](const std::vector<NDArray>& in,
                         const std::vector<NDArray>& out,
                         const ir::Attrs& attrs, const KernelContext& ctx) {
        if (attrs.Has(codegen::kPanelWeightAttr)) {
          ctx.dense_dispatch->RunPanels(in[0], in[1], out[0], ctx.pool);
        } else {
          ctx.dense_dispatch->Run(in[0], in[1], out[0], ctx.dense_config,
                                  ctx.pool);
        }
      }));
  KernelRegistry::Global()->Register("nn.dense_ref", DenseReference);

  // nn.bias_add(x: [..., N], b: [N])
  KernelRegistry::Global()->Register(
      "nn.bias_add",
      [](const std::vector<NDArray>& in, const std::vector<NDArray>& out,
         const ir::Attrs&) {
        const NDArray& x = in[0];
        const NDArray& b = in[1];
        const NDArray& y = out[0];
        int64_t n = b.shape()[0];
        int64_t rows = x.num_elements() / n;
        const float* px = x.data<float>();
        const float* pb = b.data<float>();
        float* py = y.data<float>();
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t j = 0; j < n; ++j) py[r * n + j] = px[r * n + j] + pb[j];
        }
      });
}

}  // namespace kernels
}  // namespace nimble
