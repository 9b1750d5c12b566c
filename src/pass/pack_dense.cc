// PackDenseWeights: packs every constant dense weight into the panel layout
// of the constant-weight kernels (src/codegen/dense_kernels.h) once, at
// compile time, so no serving call ever re-lays-out a weight.
#include <map>
#include <tuple>

#include "src/codegen/dispatch.h"
#include "src/ir/visitor.h"
#include "src/pass/transforms.h"
#include "src/pass/type_infer.h"

namespace nimble {
namespace pass {

using namespace ir;  // NOLINT

namespace {

/// A weight view: one source buffer can back several Constant nodes (the
/// model's functions and batched twins share their weights), and each view
/// is packed once.
using WeightKey = std::tuple<const runtime::Buffer*, size_t, int64_t, int64_t>;

bool IsFloat32Tensor(const Expr& e) {
  return e->checked_type != nullptr &&
         e->checked_type->kind() == TypeKind::kTensor &&
         AsTensorType(e->checked_type)->dtype == runtime::DataType::Float32();
}

class DensePacker : public ExprMutator {
 public:
  explicit DensePacker(PackStats* stats) : stats_(stats) {}

 protected:
  Expr MutateCall_(const CallNode* node, const Expr& e) override {
    Expr mutated = ExprMutator::MutateCall_(node, e);
    const auto* call = static_cast<const CallNode*>(mutated.get());
    if (call->op->kind() != ExprKind::kOp || call->args.size() < 2) {
      return mutated;
    }
    const std::string& name = static_cast<const OpNode*>(call->op.get())->name;
    if ((name != "nn.dense" && name != "fused_dense") ||
        call->attrs.Has(codegen::kPanelWeightAttr) ||
        call->args[1]->kind() != ExprKind::kConstant ||
        !IsFloat32Tensor(node->args[0])) {
      return mutated;
    }
    const runtime::NDArray& w =
        static_cast<const ConstantNode*>(call->args[1].get())->data;
    if (w.ndim() != 2 || w.dtype() != runtime::DataType::Float32() ||
        !w.device().is_cpu()) {
      return mutated;
    }
    std::vector<Expr> args = call->args;
    args[1] = Packed(w);
    Attrs attrs = call->attrs;
    attrs.Set(codegen::kPanelWeightAttr, w.shape()[0]);
    stats_->calls_packed++;
    return MakeCall(call->op, std::move(args), std::move(attrs));
  }

 private:
  Expr Packed(const runtime::NDArray& w) {
    WeightKey key{w.storage().get(), w.byte_offset(), w.shape()[0],
                  w.shape()[1]};
    auto it = packed_.find(key);
    if (it != packed_.end()) return it->second;
    Expr constant = MakeConstant(codegen::PackDenseWeight(w));
    packed_.emplace(key, constant);
    stats_->weights_packed++;
    return constant;
  }

  PackStats* stats_;
  std::map<WeightKey, Expr> packed_;
};

}  // namespace

PackStats PackDenseWeights(ir::Module* mod) {
  PackStats stats;
  DensePacker packer(&stats);
  std::vector<std::pair<std::string, Function>> updated;
  for (const auto& [name, fn] : mod->functions()) {
    updated.emplace_back(
        name, std::static_pointer_cast<const FunctionNode>(packer.Mutate(fn)));
  }
  for (auto& [name, fn] : updated) mod->Update(name, fn);
  // Rewritten calls (and the scopes around them) are fresh nodes; annotate
  // them for ManifestAlloc, which sizes outputs from checked types.
  if (stats.calls_packed > 0) InferTypes(mod);
  return stats;
}

}  // namespace pass
}  // namespace nimble
