// Kernel registry: maps kernel names to host implementations.
//
// Kernels follow the destination-passing convention established by the
// memory-planning pass (§4.3): outputs are pre-allocated by the caller and
// passed as mutable arguments (the IR's invoke_mut). A kernel may not
// allocate; the only exception is that upper-bound ops (§4.2) write their
// true output extent into a dedicated scalar output.
//
// The dispatch layer (src/codegen) may register several shape-specialized
// variants for one op and route between them at runtime (§4.5).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/ir/attrs.h"
#include "src/runtime/ndarray.h"

namespace nimble {

namespace codegen {
class DenseDispatchTable;
class KernelPool;
struct DenseConfig;
}  // namespace codegen

namespace kernels {

using runtime::NDArray;

/// Per-call execution context threaded from the caller into every kernel.
/// The VM fills it from the executable it is bound to, which is how
/// residue-dispatch state stays per-executable instead of process-global
/// (see the ownership contract in src/codegen/dispatch.h). The context is
/// read-only from the kernel's point of view and borrowed for the duration
/// of the call only — kernels must not retain pointers into it.
struct KernelContext {
  /// Residue-specialized dense dispatch table (§4.5). Never null when a
  /// kernel is invoked through the registry: the VM points it at its
  /// executable's table, RunKernel at its private immutable table.
  const codegen::DenseDispatchTable* dense_dispatch = nullptr;
  /// Tuner-chosen cache-blocking config for this executable's dense shapes
  /// (src/codegen/tuner.h). Null => the default DenseConfig; the VM points
  /// it at its executable's baked (possibly tuned) config.
  const codegen::DenseConfig* dense_config = nullptr;
  /// Intra-op kernel pool for large dense calls (src/codegen/parallel.h).
  /// Null => single-threaded.
  codegen::KernelPool* pool = nullptr;
};

using KernelFn = std::function<void(const std::vector<NDArray>& inputs,
                                    const std::vector<NDArray>& outputs,
                                    const ir::Attrs& attrs)>;

/// Kernels that consume the context (dense / batch_matmul / fused dense
/// chains) register in this form; context-free kernels register as KernelFn
/// and are wrapped.
using ContextKernelFn = std::function<void(const std::vector<NDArray>& inputs,
                                           const std::vector<NDArray>& outputs,
                                           const ir::Attrs& attrs,
                                           const KernelContext& ctx)>;

class KernelRegistry {
 public:
  static KernelRegistry* Global();

  /// Registers a context-free kernel (wrapped to ignore the context).
  void Register(const std::string& name, KernelFn fn);
  /// Registers a context-aware kernel.
  void Register(const std::string& name, ContextKernelFn fn);
  bool Has(const std::string& name) const;
  const ContextKernelFn& Get(const std::string& name) const;
  /// Like Get, but null when `name` is not registered. The pointer stays
  /// valid for the life of the process (registrations are never removed).
  const ContextKernelFn* Find(const std::string& name) const;
  std::vector<std::string> ListNames() const;

 private:
  std::map<std::string, ContextKernelFn> kernels_;
};

/// Idempotently registers every built-in kernel.
void EnsureKernelsRegistered();

/// Runs a kernel by name under a caller-supplied context (the caller owns
/// the dispatch table, per the ownership contract in src/codegen/dispatch.h).
void RunKernel(const std::string& name, const std::vector<NDArray>& inputs,
               const std::vector<NDArray>& outputs, const ir::Attrs& attrs,
               const KernelContext& ctx);

/// Convenience for tests and the constant-folding pass: runs a kernel under
/// a private, immutable, fully-specialized dispatch table owned by this
/// entry point (never reconfigured, so it is safe from any thread and
/// cannot perturb — or be perturbed by — any executable's table).
void RunKernel(const std::string& name, const std::vector<NDArray>& inputs,
               const std::vector<NDArray>& outputs, const ir::Attrs& attrs = {});

// Registration hooks, one per translation unit.
void RegisterElemwiseKernels();
void RegisterDenseKernels();
void RegisterMatmulKernels();
void RegisterNNKernels();
void RegisterManipKernels();
void RegisterDynamicKernels();
void RegisterFusedKernels();

}  // namespace kernels
}  // namespace nimble
