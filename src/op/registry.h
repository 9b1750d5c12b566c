// Operator registry.
//
// Every primitive operator carries:
//  - a *type relation* used at compile time by type inference (§4.1), which
//    must propagate Any/symbolic dims per the paper's rules;
//  - a *shape function* executed at runtime to compute output shapes for
//    storage allocation and late type checking (§4.2), in one of three
//    modes: data-independent, data-dependent, upper-bound;
//  - a *fusion pattern* driving the fusion pass, with the paper's policy
//    that data-dependent / upper-bound ops must not be fused into
//    composites (§4.2);
//  - the name of the kernel implementing it (resolved in the kernel
//    registry; the dispatch layer may map one op onto several
//    shape-specialized kernel variants, §4.5).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/ir/attrs.h"
#include "src/ir/expr.h"
#include "src/ir/type.h"
#include "src/runtime/ndarray.h"

namespace nimble {
namespace op {

/// TVM-style fusion pattern lattice.
enum class FusePattern : uint8_t {
  kElemWise = 0,        // out[i] = f(in[i])
  kBroadcast = 1,       // out[i] = f(in[map(i)]), map monotone
  kInjective = 2,       // arbitrary injective index map (transpose, reshape)
  kCommReduce = 3,      // reductions
  kOutEWiseFusable = 4, // complex op whose *output* supports elemwise fusion (dense)
  kOpaque = 5,          // never fused
};

enum class ShapeFuncMode : uint8_t {
  kDataIndependent = 0,  // output shape depends only on input shapes
  kDataDependent = 1,    // needs concrete input values (arange, unique)
  kUpperBound = 2,       // cheap upper bound; kernel reports true shape
};

/// Compile-time type relation: infers the output type from input types.
/// Throws nimble::Error on a (statically detectable) type error; with Any
/// present, some checks are deferred to runtime (gradual typing, §4.1).
using TypeRel =
    std::function<ir::Type(const std::vector<ir::Type>&, const ir::Attrs&)>;

/// Runtime shape function. `in_shapes` are the concrete input shapes;
/// `in_data` is non-empty only for data-dependent shape functions. Returns
/// one shape per output tensor.
using ShapeFn = std::function<std::vector<runtime::ShapeVec>(
    const std::vector<runtime::ShapeVec>& in_shapes,
    const std::vector<runtime::NDArray>& in_data, const ir::Attrs& attrs)>;

struct OpInfo {
  std::string name;
  int num_inputs = -1;  // -1 = variadic
  TypeRel type_rel;
  ShapeFuncMode shape_mode = ShapeFuncMode::kDataIndependent;
  ShapeFn shape_fn;
  FusePattern pattern = FusePattern::kOpaque;
  std::string kernel_name;  // defaults to op name
  int num_outputs = 1;

  OpInfo& set_num_inputs(int n) { num_inputs = n; return *this; }
  OpInfo& set_num_outputs(int n) { num_outputs = n; return *this; }
  OpInfo& set_type_rel(TypeRel rel) { type_rel = std::move(rel); return *this; }
  OpInfo& set_shape_fn(ShapeFuncMode mode, ShapeFn fn) {
    shape_mode = mode;
    shape_fn = std::move(fn);
    return *this;
  }
  OpInfo& set_pattern(FusePattern p) { pattern = p; return *this; }
  OpInfo& set_kernel(std::string name) { kernel_name = std::move(name); return *this; }
};

class OpRegistry {
 public:
  static OpRegistry* Global();

  OpInfo& Register(const std::string& name);
  bool Has(const std::string& name) const { return ops_.count(name) > 0; }
  const OpInfo& Get(const std::string& name) const;
  /// Like Get, but null when `name` is not registered. The pointer stays
  /// valid for the life of the process (registrations are never removed).
  const OpInfo* Find(const std::string& name) const;
  std::vector<std::string> ListNames() const;

 private:
  std::map<std::string, OpInfo> ops_;
};

/// Interned operator reference for building Call expressions.
ir::Op GetOp(const std::string& name);

/// Info for the operator referenced by `op_expr`.
const OpInfo& InfoOf(const ir::Expr& op_expr);

/// Ensures all built-in operators are registered (idempotent). Called by
/// GetOp and the compiler entry points.
void EnsureOpsRegistered();

// ---- convenience call builders used by model code and tests ---------------

ir::Expr Call1(const std::string& op, ir::Expr a, ir::Attrs attrs = {});
ir::Expr Call2(const std::string& op, ir::Expr a, ir::Expr b, ir::Attrs attrs = {});
ir::Expr Call3(const std::string& op, ir::Expr a, ir::Expr b, ir::Expr c,
               ir::Attrs attrs = {});

}  // namespace op
}  // namespace nimble
