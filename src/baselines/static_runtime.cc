#include "src/baselines/static_runtime.h"

#include <cmath>
#include <cstring>

#include "src/codegen/parallel.h"
#include "src/kernels/elementwise.h"
#include "src/kernels/registry.h"

namespace nimble {
namespace baselines {

using ir::Attrs;
using kernels::EwOp;
using runtime::DataType;
using runtime::NDArray;

namespace {

std::vector<int64_t> Steps(std::initializer_list<std::array<int64_t, 3>> triples) {
  std::vector<int64_t> flat;
  for (const auto& t : triples) {
    flat.push_back(t[0]);
    flat.push_back(t[1]);
    flat.push_back(t[2]);
  }
  return flat;
}

constexpr int64_t kAdd = static_cast<int64_t>(EwOp::kAdd);
constexpr int64_t kMul = static_cast<int64_t>(EwOp::kMultiply);
constexpr int64_t kGelu = static_cast<int64_t>(EwOp::kGelu);

}  // namespace

NDArray StaticBERTRuntime::Buffer(runtime::ShapeVec shape) {
  return NDArray::Empty(std::move(shape), DataType::Float32());
}

void StaticBERTRuntime::AddStep(const std::string& kernel,
                                std::vector<NDArray> inputs,
                                std::vector<NDArray> outputs, Attrs attrs) {
  if (kernel == "fused_dense") {
    // The weights are constants, as in the compiled VM: run them from the
    // same packed panels (pass::PackDenseWeights), so Table 4 compares the
    // two runtimes rather than two dense kernels.
    attrs.Set(codegen::kPanelWeightAttr, inputs[1].shape()[0]);
    inputs[1] = codegen::PackDenseWeight(inputs[1]);
  }
  steps_.push_back(Step{kernel, std::move(inputs), std::move(outputs),
                        std::move(attrs)});
}

StaticBERTRuntime::StaticBERTRuntime(const models::BERTModel& model,
                                     int64_t seq_len)
    : model_(model), seq_len_(seq_len) {
  kernels::EnsureKernelsRegistered();
  const auto& cfg = model.config;
  int64_t L = seq_len, H = cfg.hidden, A = cfg.num_heads, D = H / A,
          F = cfg.ffn_hidden;

  ids_buffer_ = NDArray::Empty({L}, DataType::Int64());
  NDArray x = Buffer({L, H});
  AddStep("take", {model.weights.embedding, ids_buffer_}, {x});

  NDArray scale = NDArray::Scalar<float>(1.0f / std::sqrt(static_cast<float>(D)));
  for (const auto& w : model.weights.layers) {
    NDArray q = Buffer({L, H}), k = Buffer({L, H}), v = Buffer({L, H});
    Attrs bias_ep;
    bias_ep.Set("steps", Steps({{kAdd, 3, 2}}));
    AddStep("fused_dense", {x, w.wq, w.bq}, {q}, bias_ep);
    AddStep("fused_dense", {x, w.wk, w.bk}, {k}, bias_ep);
    AddStep("fused_dense", {x, w.wv, w.bv}, {v}, bias_ep);

    NDArray q_t = Buffer({A, L, D}), k_t = Buffer({A, L, D}),
            v_t = Buffer({A, D, L});
    Attrs perm_alt;
    AddStep("transpose", {q.Reshape({L, A, D})}, {q_t},
            Attrs().Set("axes", std::vector<int64_t>{1, 0, 2}));
    AddStep("transpose", {k.Reshape({L, A, D})}, {k_t},
            Attrs().Set("axes", std::vector<int64_t>{1, 0, 2}));
    AddStep("transpose", {v.Reshape({L, A, D})}, {v_t},
            Attrs().Set("axes", std::vector<int64_t>{1, 2, 0}));

    NDArray scores = Buffer({A, L, L});
    Attrs scale_ep;
    scale_ep.Set("steps", Steps({{kMul, 2, 2}}));
    AddStep("fused_batch_matmul", {q_t, k_t, scale}, {scores}, scale_ep);
    NDArray probs = Buffer({A, L, L});
    AddStep("nn.softmax", {scores}, {probs});
    NDArray ctx = Buffer({A, L, D});
    AddStep("nn.batch_matmul", {probs, v_t}, {ctx});
    NDArray ctx_t = Buffer({L, A, D});
    AddStep("transpose", {ctx}, {ctx_t},
            Attrs().Set("axes", std::vector<int64_t>{1, 0, 2}));

    NDArray attn = Buffer({L, H});
    Attrs attn_ep;
    attn_ep.Set("steps", Steps({{kAdd, 3, 2}, {kAdd, 1, 3}}));
    AddStep("fused_dense", {ctx_t.Reshape({L, H}), w.wo, w.bo, x}, {attn},
            attn_ep);
    NDArray x1 = Buffer({L, H});
    AddStep("nn.layer_norm", {attn, w.ln1_g, w.ln1_b}, {x1});

    NDArray f1 = Buffer({L, F});
    Attrs ffn1_ep;
    ffn1_ep.Set("steps", Steps({{kAdd, 3, 2}, {kGelu, 0, 0}}));
    AddStep("fused_dense", {x1, w.w1, w.b1}, {f1}, ffn1_ep);
    NDArray f2 = Buffer({L, H});
    Attrs ffn2_ep;
    ffn2_ep.Set("steps", Steps({{kAdd, 3, 2}, {kAdd, 1, 3}}));
    AddStep("fused_dense", {f1, w.w2, w.b2, x1}, {f2}, ffn2_ep);
    NDArray x2 = Buffer({L, H});
    AddStep("nn.layer_norm", {f2, w.ln2_g, w.ln2_b}, {x2});
    x = x2;
  }
  output_ = x;
}

NDArray StaticBERTRuntime::Run(const std::vector<int64_t>& ids) {
  NIMBLE_CHECK_EQ(static_cast<int64_t>(ids.size()), seq_len_)
      << "static runtime compiled for a fixed sequence length";
  std::memcpy(ids_buffer_.raw_data(), ids.data(), ids.size() * sizeof(int64_t));
  // The same kernel pool the VM passes, so Table 4 compares the runtimes,
  // not their intra-op parallelism.
  kernels::KernelContext ctx;
  ctx.dense_dispatch = &dispatch_;
  ctx.pool = codegen::KernelPool::Global();
  for (const Step& step : steps_) {
    kernels::KernelRegistry::Global()->Get(step.kernel)(step.inputs,
                                                        step.outputs,
                                                        step.attrs, ctx);
  }
  return output_;
}

}  // namespace baselines
}  // namespace nimble
