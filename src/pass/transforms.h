// Generic IR-to-IR passes: A-normal form, constant folding, dead code
// elimination, and the operator fusion passes (§4.2's fusion policy).
#pragma once

#include "src/ir/module.h"

namespace nimble {
namespace pass {

/// Converts every function body to A-normal form: all intermediate values
/// are let-bound, and every call argument is a Var or Constant. Later
/// passes (ManifestAlloc, MemoryPlan, the VM compiler) require ANF.
void ToANF(ir::Module* mod);
ir::Expr ExprToANF(const ir::Expr& e);

/// Evaluates primitive calls whose arguments are all constants (and whose
/// output shapes are statically known), replacing them with Constant nodes.
void FoldConstants(ir::Module* mod);

/// Removes unused, effect-free let bindings.
void DeadCodeElim(ir::Module* mod);

struct FusionStats {
  int groups_created = 0;   // fused composite calls emitted
  int ops_fused = 0;        // primitive ops absorbed into groups
  int blocked_dynamic = 0;  // fusions refused by the dynamic-shape policy
};

/// Greedy operator fusion on ANF bodies. Chains of elementwise/broadcast
/// ops are folded into fused_elemwise; chains rooted at nn.dense /
/// nn.batch_matmul become fused_dense / fused_batch_matmul epilogues.
/// Policy (§4.2): ops whose shape function is data-dependent or
/// upper-bound are never fused into a composite.
FusionStats FuseOps(ir::Module* mod);

struct PackStats {
  int weights_packed = 0;  // distinct weight views packed into panels
  int calls_packed = 0;    // dense calls rewritten to take them
};

/// Rewrites every nn.dense / fused_dense whose weight is a 2-D float32
/// compile-time constant to take that weight pre-packed into 16-column
/// panels [ceil(N/16), K, 16] (codegen::PackDenseWeight), with N in the
/// call's codegen::kPanelWeightAttr attr. Packing is per source buffer, not
/// per Constant node: every call that reads one weight shares one packed
/// copy, and the [N, K] original is no longer referenced by the module.
/// Runs after FuseOps (fused_dense already carries its epilogue); dense on
/// non-constant operands is left for the [N, K] kernels.
PackStats PackDenseWeights(ir::Module* mod);

/// Pattern-matches the unfused LSTM recurrence
///   split(gates, 4) -> sigmoid/tanh gate math -> (h', c')
/// and rewrites it to the fused nn.lstm_cell operator. Returns the number
/// of cells fused.
int FuseLSTMCell(ir::Module* mod);

/// Specializes a batched serving entry (src/vm/batch_spec.h convention:
/// `batched_function(packed [Lmax, B, D], max_len, ...)`) to a fixed shape
/// bucket: substitutes the packed input's symbolic length dim with
/// `max_len` module-wide (and, when `batch_size` > 0, the batch dim too —
/// making the batched dataflow fully static), and folds uses of the
/// entry's max_len parameter to the baked constant. Runs before type
/// inference; the entry keeps its arity and calling convention, so the
/// serving layer can swap the specialized variant for the generic
/// executable per batch (src/serve/exec_cache.h). Throws when the entry
/// does not follow the convention or was already specialized.
void SpecializeBatchedEntry(ir::Module* mod, const std::string& batched_function,
                            int64_t max_len, int64_t batch_size = 0);

/// Unrolls a specialized batched entry's tail-recursive loop into
/// straight-line IR. The entry's body must be (a let-prefix over) a call to
/// a global loop function of the form If(less(i, n), step, exit) whose
/// counter and bound have already folded to constants (what
/// SpecializeBatchedEntry produces) — each step is then inlined
/// hygienically (fresh let binders per step, the counter folding forward),
/// eliminating the per-step frame push/pop, branch and counter arithmetic
/// from the compiled bytecode. Anything else — symbolic bounds, binders the
/// inliner cannot rename, or a loop longer than `max_steps` — leaves the
/// module untouched. Returns the number of loop iterations inlined (0 = not
/// unrolled).
int64_t UnrollBatchedLoop(ir::Module* mod, const std::string& entry_name,
                          int64_t max_steps);

}  // namespace pass
}  // namespace nimble
