// Fused kernels produced by the operator-fusion pass (src/pass/fuse.cc).
//
// A fused group is encoded in call attrs as a flat "steps" vector of
// (EwOp, rhs_kind, rhs_input_index) triples applied in order to the root
// value. Fusion's benefit is memory traffic: the chain makes a single pass
// over the output instead of materializing one intermediate per operator.
//
//   rhs_kind 0: unary step (no rhs)
//   rhs_kind 1: rhs is a same-shape tensor input
//   rhs_kind 2: rhs is a scalar tensor input
//   rhs_kind 3: rhs is a row vector [N] broadcast along the last axis
//
// Kernels:
//   fused_elemwise          inputs = (root, extras...)            out = chain(root)
//   fused_dense             inputs = (x, w, extras...)            out = chain(x·wᵀ)
//                           (w may be packed panels, see nn.dense)
//   fused_batch_matmul      inputs = (a, b, extras...)            out = chain(a·bᵀ)
#include "src/codegen/dispatch.h"
#include "src/kernels/elementwise.h"
#include "src/kernels/registry.h"

namespace nimble {
namespace kernels {

namespace {

struct Step {
  EwOp op;
  int64_t rhs_kind;
  int64_t rhs_index;  // index into the kernel's input list
};

std::vector<Step> DecodeSteps(const ir::Attrs& attrs) {
  auto flat = attrs.GetIntVec("steps");
  NIMBLE_CHECK_EQ(flat.size() % 3, 0u) << "malformed fused steps";
  std::vector<Step> steps;
  steps.reserve(flat.size() / 3);
  for (size_t i = 0; i < flat.size(); i += 3) {
    steps.push_back(Step{static_cast<EwOp>(flat[i]), flat[i + 1], flat[i + 2]});
  }
  return steps;
}

/// Applies the chain in-place over `out`, reading rhs operands from `inputs`.
/// Each step picks its op once and runs one EwLoop pass over the output.
void ApplyChain(const std::vector<Step>& steps,
                const std::vector<NDArray>& inputs, const NDArray& out) {
  int64_t n = out.num_elements();
  int64_t last = out.shape().empty() ? 1 : out.shape().back();
  float* po = out.data<float>();
  for (const Step& s : steps) {
    switch (s.rhs_kind) {
      case 0:  // unary
        VisitUnaryEwOp(s.op, [&](auto tag) {
          EwLoop<decltype(tag)::value, 1, 0, float>(po, po, po, n);
        });
        break;
      case 1: {  // same-shape tensor
        const NDArray& rhs = inputs[s.rhs_index];
        NIMBLE_CHECK_EQ(rhs.num_elements(), n) << "fused rhs shape mismatch";
        const float* pr = rhs.data<float>();
        VisitBinaryEwOp(s.op, [&](auto tag) {
          EwLoop<decltype(tag)::value, 1, 1, float>(po, po, pr, n);
        });
        break;
      }
      case 2: {  // scalar
        float v = inputs[s.rhs_index].data<float>()[0];
        VisitBinaryEwOp(s.op, [&](auto tag) {
          EwLoop<decltype(tag)::value, 1, 0, float>(po, po, &v, n);
        });
        break;
      }
      case 3: {  // row vector over the last axis
        const NDArray& rhs = inputs[s.rhs_index];
        NIMBLE_CHECK_EQ(rhs.num_elements(), last) << "fused bias shape mismatch";
        const float* pr = rhs.data<float>();
        VisitBinaryEwOp(s.op, [&](auto tag) {
          for (int64_t row = 0; row < n; row += last) {
            EwLoop<decltype(tag)::value, 1, 1, float>(po + row, po + row, pr,
                                                      last);
          }
        });
        break;
      }
      default:
        NIMBLE_FATAL() << "bad fused rhs kind " << s.rhs_kind;
    }
  }
}

void FusedElemwise(const std::vector<NDArray>& in,
                   const std::vector<NDArray>& out, const ir::Attrs& attrs) {
  auto steps = DecodeSteps(attrs);
  const NDArray& root = in[0];
  const NDArray& y = out[0];
  NIMBLE_CHECK_EQ(root.num_elements(), y.num_elements());
  std::memcpy(y.raw_data(), root.raw_data(), root.nbytes());
  ApplyChain(steps, in, y);
}

void FusedDense(const std::vector<NDArray>& in, const std::vector<NDArray>& out,
                const ir::Attrs& attrs, const KernelContext& ctx) {
  auto steps = DecodeSteps(attrs);
  if (attrs.Has(codegen::kPanelWeightAttr)) {
    ctx.dense_dispatch->RunPanels(in[0], in[1], out[0], ctx.pool);
  } else {
    ctx.dense_dispatch->Run(in[0], in[1], out[0], ctx.dense_config, ctx.pool);
  }
  ApplyChain(steps, in, out[0]);
}

void FusedBatchMatmul(const std::vector<NDArray>& in,
                      const std::vector<NDArray>& out, const ir::Attrs& attrs,
                      const KernelContext& ctx) {
  auto steps = DecodeSteps(attrs);
  const NDArray& a = in[0];
  const NDArray& b = in[1];
  const NDArray& y = out[0];
  int64_t batch = a.shape()[0];
  int64_t m = a.shape()[1], k = a.shape()[2], n = b.shape()[1];
  const auto& table = *ctx.dense_dispatch;
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* py = y.data<float>();
  for (int64_t bi = 0; bi < batch; ++bi) {
    table.Run(pa + bi * m * k, pb + bi * n * k, py + bi * m * n, m, n, k,
              ctx.dense_config, ctx.pool);
  }
  ApplyChain(steps, in, y);
}

}  // namespace

void RegisterFusedKernels() {
  KernelRegistry::Global()->Register("fused_elemwise", FusedElemwise);
  KernelRegistry::Global()->Register("fused_dense", ContextKernelFn(FusedDense));
  KernelRegistry::Global()->Register("fused_batch_matmul",
                                     ContextKernelFn(FusedBatchMatmul));
}

}  // namespace kernels
}  // namespace nimble
