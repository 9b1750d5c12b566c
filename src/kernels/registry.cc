#include "src/kernels/registry.h"

#include "src/codegen/dispatch.h"
#include "src/support/logging.h"

namespace nimble {
namespace kernels {

KernelRegistry* KernelRegistry::Global() {
  static KernelRegistry registry;
  return &registry;
}

void KernelRegistry::Register(const std::string& name, KernelFn fn) {
  kernels_[name] = [fn = std::move(fn)](const std::vector<NDArray>& inputs,
                                        const std::vector<NDArray>& outputs,
                                        const ir::Attrs& attrs,
                                        const KernelContext&) {
    fn(inputs, outputs, attrs);
  };
}

void KernelRegistry::Register(const std::string& name, ContextKernelFn fn) {
  kernels_[name] = std::move(fn);
}

bool KernelRegistry::Has(const std::string& name) const {
  return kernels_.count(name) > 0;
}

const ContextKernelFn& KernelRegistry::Get(const std::string& name) const {
  const ContextKernelFn* fn = Find(name);
  NIMBLE_CHECK(fn != nullptr) << "no kernel registered for '" << name << "'";
  return *fn;
}

const ContextKernelFn* KernelRegistry::Find(const std::string& name) const {
  auto it = kernels_.find(name);
  return it == kernels_.end() ? nullptr : &it->second;
}

std::vector<std::string> KernelRegistry::ListNames() const {
  std::vector<std::string> names;
  for (const auto& [name, fn] : kernels_) names.push_back(name);
  return names;
}

void EnsureKernelsRegistered() {
  static bool done = [] {
    RegisterElemwiseKernels();
    RegisterDenseKernels();
    RegisterMatmulKernels();
    RegisterNNKernels();
    RegisterManipKernels();
    RegisterDynamicKernels();
    RegisterFusedKernels();
    return true;
  }();
  (void)done;
}

void RunKernel(const std::string& name, const std::vector<NDArray>& inputs,
               const std::vector<NDArray>& outputs, const ir::Attrs& attrs,
               const KernelContext& ctx) {
  EnsureKernelsRegistered();
  KernelRegistry::Global()->Get(name)(inputs, outputs, attrs, ctx);
}

void RunKernel(const std::string& name, const std::vector<NDArray>& inputs,
               const std::vector<NDArray>& outputs, const ir::Attrs& attrs) {
  // Private immutable table (full dispatch), constructed once and never
  // reconfigured: callers without their own table get race-free dispatch
  // without any process-global mutable state.
  static const codegen::DenseDispatchTable table(codegen::kTileRows);
  KernelContext ctx;
  ctx.dense_dispatch = &table;
  RunKernel(name, inputs, outputs, attrs, ctx);
}

}  // namespace kernels
}  // namespace nimble
