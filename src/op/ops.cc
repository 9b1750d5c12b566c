// Registration of all built-in operators: compile-time type relations
// (§4.1), runtime shape functions in the three modes of §4.2, fusion
// patterns, and kernel bindings.
#include <algorithm>
#include <numeric>

#include "src/codegen/dense_kernels.h"
#include "src/op/registry.h"
#include "src/support/logging.h"

namespace nimble {
namespace op {

using ir::Attrs;
using ir::Dim;
using ir::Shape;
using ir::TensorType;
using ir::TensorTypeNode;
using ir::TupleType;
using ir::Type;
using runtime::DataType;
using runtime::ShapeVec;

namespace {

const TensorTypeNode* ExpectTensor(const Type& t, const char* op, int index) {
  NIMBLE_CHECK(t != nullptr && t->kind() == ir::TypeKind::kTensor)
      << op << ": input " << index << " must be a tensor, got "
      << ir::TypeToString(t);
  return static_cast<const TensorTypeNode*>(t.get());
}

// ---- dim algebra for type relations ---------------------------------------

/// Broadcast rule with the paper's Any cases:
///   (Any, 1) -> Any,   (Any, d) -> d for d > 1,   (Any, Any) -> Any.
/// Identical symbolic dims broadcast to themselves. Statically incompatible
/// extents are a compile-time error; Any-vs-d is deferred to runtime
/// (gradual typing).
Dim BroadcastDim(const Dim& a, const Dim& b, const char* op) {
  if (a.is_static() && b.is_static()) {
    if (a.value() == b.value()) return a;
    if (a.value() == 1) return b;
    if (b.value() == 1) return a;
    NIMBLE_FATAL() << op << ": incompatible broadcast dims " << a.ToString()
                   << " vs " << b.ToString();
  }
  if (a.is_static()) return a.value() == 1 ? b : a;  // (1,Any)->Any, (d,Any)->d
  if (b.is_static()) return b.value() == 1 ? a : b;
  if (a.is_sym() && b.is_sym() && a.sym_id() == b.sym_id()) return a;
  return Dim::Any();
}

/// Unification for dims required to be *equal* (e.g. contraction axes):
/// prefers the more specific side; mismatched statics are an error.
Dim UnifyDim(const Dim& a, const Dim& b, const char* op) {
  if (a.is_static() && b.is_static()) {
    NIMBLE_CHECK_EQ(a.value(), b.value()) << op << ": dimension mismatch";
    return a;
  }
  if (a.is_static()) return a;
  if (b.is_static()) return b;
  if (a.is_sym()) return a;
  if (b.is_sym()) return b;
  return Dim::Any();
}

// ---- shared type relations -------------------------------------------------

Type BroadcastRel(const std::vector<Type>& in, const Attrs& attrs) {
  NIMBLE_CHECK_EQ(in.size(), 2u);
  const auto* a = ExpectTensor(in[0], "broadcast", 0);
  const auto* b = ExpectTensor(in[1], "broadcast", 1);
  NIMBLE_CHECK(a->dtype == b->dtype)
      << "broadcast: dtype mismatch " << a->dtype.ToString() << " vs "
      << b->dtype.ToString();
  size_t rank = std::max(a->shape.size(), b->shape.size());
  Shape out(rank);
  for (size_t i = 0; i < rank; ++i) {
    // Align from the trailing dimension, NumPy style.
    bool ha = i < a->shape.size();
    bool hb = i < b->shape.size();
    const Dim one = Dim::Static(1);
    const Dim& da = ha ? a->shape[a->shape.size() - 1 - i] : one;
    const Dim& db = hb ? b->shape[b->shape.size() - 1 - i] : one;
    out[rank - 1 - i] = BroadcastDim(da, db, "broadcast");
  }
  return TensorType(std::move(out), a->dtype);
}

Type CompareRel(const std::vector<Type>& in, const Attrs& attrs) {
  Type t = BroadcastRel(in, attrs);
  return TensorType(ir::AsTensorType(t)->shape, DataType::Bool());
}

Type IdentityRel(const std::vector<Type>& in, const Attrs& attrs) {
  NIMBLE_CHECK_GE(in.size(), 1u);
  const auto* t = ExpectTensor(in[0], "identity", 0);
  return TensorType(t->shape, t->dtype);
}

ShapeVec BroadcastShape(const ShapeVec& a, const ShapeVec& b) {
  size_t rank = std::max(a.size(), b.size());
  ShapeVec out(rank);
  for (size_t i = 0; i < rank; ++i) {
    int64_t da = i < a.size() ? a[a.size() - 1 - i] : 1;
    int64_t db = i < b.size() ? b[b.size() - 1 - i] : 1;
    NIMBLE_CHECK(da == db || da == 1 || db == 1)
        << "runtime broadcast mismatch: " << da << " vs " << db;
    out[rank - 1 - i] = std::max(da, db);
  }
  return out;
}

std::vector<ShapeVec> BroadcastShapeFn(const std::vector<ShapeVec>& in,
                                       const std::vector<runtime::NDArray>&,
                                       const Attrs&) {
  NIMBLE_CHECK_EQ(in.size(), 2u);
  return {BroadcastShape(in[0], in[1])};
}

std::vector<ShapeVec> IdentityShapeFn(const std::vector<ShapeVec>& in,
                                      const std::vector<runtime::NDArray>&,
                                      const Attrs&) {
  NIMBLE_CHECK_GE(in.size(), 1u);
  return {in[0]};
}

void RegisterBroadcastBinary(const std::string& name) {
  OpRegistry::Global()
      ->Register(name)
      .set_num_inputs(2)
      .set_type_rel(BroadcastRel)
      .set_shape_fn(ShapeFuncMode::kDataIndependent, BroadcastShapeFn)
      .set_pattern(FusePattern::kBroadcast);
}

void RegisterCompareBinary(const std::string& name) {
  OpRegistry::Global()
      ->Register(name)
      .set_num_inputs(2)
      .set_type_rel(CompareRel)
      .set_shape_fn(ShapeFuncMode::kDataIndependent, BroadcastShapeFn)
      .set_pattern(FusePattern::kBroadcast);
}

void RegisterElemwiseUnary(const std::string& name) {
  OpRegistry::Global()
      ->Register(name)
      .set_num_inputs(1)
      .set_type_rel(IdentityRel)
      .set_shape_fn(ShapeFuncMode::kDataIndependent, IdentityShapeFn)
      .set_pattern(FusePattern::kElemWise);
}

// ---- dense (plain and fused) ------------------------------------------------

/// Type relation shared by nn.dense and fused_dense: x is [M, K] and w is
/// either [N, K] or, once pass::PackDenseWeights has packed a constant
/// weight, panels [ceil(N/16), K, 16] with N in the kPanelWeightAttr attr.
Type DenseRel(const std::vector<Type>& in, const Attrs& attrs,
              const char* op) {
  const auto* x = ExpectTensor(in[0], op, 0);
  const auto* w = ExpectTensor(in[1], op, 1);
  NIMBLE_CHECK_EQ(x->shape.size(), 2u) << op << ": data must be 2-D";
  if (!attrs.Has(codegen::kPanelWeightAttr)) {
    NIMBLE_CHECK_EQ(w->shape.size(), 2u) << op << ": weight must be 2-D";
    UnifyDim(x->shape[1], w->shape[1], op);  // contraction axis
    return TensorType({x->shape[0], w->shape[0]}, x->dtype);
  }
  int64_t n = attrs.GetInt(codegen::kPanelWeightAttr);
  NIMBLE_CHECK_EQ(w->shape.size(), 3u) << op << ": packed weight must be 3-D";
  UnifyDim(w->shape[0], Dim::Static(codegen::PanelCount(n)), op);
  UnifyDim(x->shape[1], w->shape[1], op);  // contraction axis
  UnifyDim(w->shape[2], Dim::Static(codegen::kPanelCols), op);
  return TensorType({x->shape[0], Dim::Static(n)}, x->dtype);
}

std::vector<ShapeVec> DenseShapeFn(const std::vector<ShapeVec>& in,
                                   const std::vector<runtime::NDArray>&,
                                   const Attrs& attrs) {
  int64_t n = attrs.GetInt(codegen::kPanelWeightAttr, in[1][0]);
  return {{in[0][0], n}};
}

// ---- individual operators --------------------------------------------------

void RegisterDense() {
  // nn.dense(x: [M, K], w: [N, K]) -> [M, N]
  OpRegistry::Global()
      ->Register("nn.dense")
      .set_num_inputs(2)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) {
        return DenseRel(in, attrs, "nn.dense");
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent, DenseShapeFn)
      .set_pattern(FusePattern::kOutEWiseFusable);
}

void RegisterBiasAdd() {
  // nn.bias_add(x: [..., N], b: [N]) -> [..., N]
  OpRegistry::Global()
      ->Register("nn.bias_add")
      .set_num_inputs(2)
      .set_type_rel([](const std::vector<Type>& in, const Attrs&) -> Type {
        const auto* x = ExpectTensor(in[0], "nn.bias_add", 0);
        const auto* b = ExpectTensor(in[1], "nn.bias_add", 1);
        NIMBLE_CHECK_EQ(b->shape.size(), 1u) << "nn.bias_add: bias must be 1-D";
        UnifyDim(x->shape.back(), b->shape[0], "nn.bias_add");
        return TensorType(x->shape, x->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent, IdentityShapeFn)
      .set_pattern(FusePattern::kBroadcast);
}

void RegisterBatchMatmul() {
  // nn.batch_matmul(a: [B, M, K], b: [B, N, K]) -> [B, M, N]
  OpRegistry::Global()
      ->Register("nn.batch_matmul")
      .set_num_inputs(2)
      .set_type_rel([](const std::vector<Type>& in, const Attrs&) -> Type {
        const auto* a = ExpectTensor(in[0], "nn.batch_matmul", 0);
        const auto* b = ExpectTensor(in[1], "nn.batch_matmul", 1);
        NIMBLE_CHECK_EQ(a->shape.size(), 3u);
        NIMBLE_CHECK_EQ(b->shape.size(), 3u);
        Dim batch = UnifyDim(a->shape[0], b->shape[0], "nn.batch_matmul");
        UnifyDim(a->shape[2], b->shape[2], "nn.batch_matmul");
        return TensorType({batch, a->shape[1], b->shape[1]}, a->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs&) -> std::vector<ShapeVec> {
                      return {{in[0][0], in[0][1], in[1][1]}};
                    })
      .set_pattern(FusePattern::kOutEWiseFusable);
}

void RegisterSoftmaxLayerNorm() {
  OpRegistry::Global()
      ->Register("nn.softmax")
      .set_num_inputs(1)
      .set_type_rel(IdentityRel)
      .set_shape_fn(ShapeFuncMode::kDataIndependent, IdentityShapeFn)
      .set_pattern(FusePattern::kOpaque);

  // nn.layer_norm(x, gamma: [N], beta: [N]) over the last axis.
  OpRegistry::Global()
      ->Register("nn.layer_norm")
      .set_num_inputs(3)
      .set_type_rel([](const std::vector<Type>& in, const Attrs&) -> Type {
        const auto* x = ExpectTensor(in[0], "nn.layer_norm", 0);
        const auto* g = ExpectTensor(in[1], "nn.layer_norm", 1);
        const auto* b = ExpectTensor(in[2], "nn.layer_norm", 2);
        NIMBLE_CHECK_EQ(g->shape.size(), 1u);
        NIMBLE_CHECK_EQ(b->shape.size(), 1u);
        UnifyDim(x->shape.back(), g->shape[0], "nn.layer_norm");
        UnifyDim(x->shape.back(), b->shape[0], "nn.layer_norm");
        return TensorType(x->shape, x->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent, IdentityShapeFn)
      .set_pattern(FusePattern::kOpaque);
}

void RegisterLSTMCell() {
  // nn.lstm_cell(gates: [B, 4H], c: [B, H]) -> ([B, H], [B, H])
  // The fused recurrence produced by the FuseLSTMCell pattern pass.
  OpRegistry::Global()
      ->Register("nn.lstm_cell")
      .set_num_inputs(2)
      .set_num_outputs(2)
      .set_type_rel([](const std::vector<Type>& in, const Attrs&) -> Type {
        const auto* gates = ExpectTensor(in[0], "nn.lstm_cell", 0);
        const auto* c = ExpectTensor(in[1], "nn.lstm_cell", 1);
        NIMBLE_CHECK_EQ(gates->shape.size(), 2u);
        NIMBLE_CHECK_EQ(c->shape.size(), 2u);
        if (gates->shape[1].is_static() && c->shape[1].is_static()) {
          NIMBLE_CHECK_EQ(gates->shape[1].value(), 4 * c->shape[1].value())
              << "nn.lstm_cell: gates must have 4x hidden columns";
        }
        Type state = TensorType({gates->shape[0], c->shape[1]}, c->dtype);
        return TupleType({state, state});
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs&) -> std::vector<ShapeVec> {
                      ShapeVec state{in[0][0], in[1][1]};
                      return {state, state};
                    })
      .set_pattern(FusePattern::kOpaque);
}

void RegisterConcat() {
  // concat(x0, x1, ..., axis) — variadic.
  OpRegistry::Global()
      ->Register("concat")
      .set_num_inputs(-1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) -> Type {
        NIMBLE_CHECK_GE(in.size(), 1u);
        int64_t axis = attrs.GetInt("axis", 0);
        const auto* first = ExpectTensor(in[0], "concat", 0);
        size_t rank = first->shape.size();
        NIMBLE_CHECK(axis >= 0 && static_cast<size_t>(axis) < rank)
            << "concat: axis out of range";
        Shape out = first->shape;
        int64_t static_sum = 0;
        bool all_static = true;
        for (size_t i = 0; i < in.size(); ++i) {
          const auto* t = ExpectTensor(in[i], "concat", static_cast<int>(i));
          NIMBLE_CHECK_EQ(t->shape.size(), rank) << "concat: rank mismatch";
          NIMBLE_CHECK(t->dtype == first->dtype) << "concat: dtype mismatch";
          for (size_t d = 0; d < rank; ++d) {
            if (static_cast<int64_t>(d) == axis) {
              if (t->shape[d].is_static()) {
                static_sum += t->shape[d].value();
              } else {
                all_static = false;
              }
            } else {
              out[d] = UnifyDim(out[d], t->shape[d], "concat");
            }
          }
        }
        out[axis] = all_static ? Dim::Static(static_sum) : Dim::Any();
        return TensorType(std::move(out), first->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs& attrs) -> std::vector<ShapeVec> {
                      int64_t axis = attrs.GetInt("axis", 0);
                      ShapeVec out = in[0];
                      for (size_t i = 1; i < in.size(); ++i) out[axis] += in[i][axis];
                      return {out};
                    })
      .set_pattern(FusePattern::kInjective);
}

void RegisterSplit() {
  // split(x, sections, axis) -> tuple of `sections` equal parts. The split
  // axis must be statically divisible.
  OpRegistry::Global()
      ->Register("split")
      .set_num_inputs(1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) -> Type {
        const auto* x = ExpectTensor(in[0], "split", 0);
        int64_t sections = attrs.GetInt("sections");
        int64_t axis = attrs.GetInt("axis", 0);
        NIMBLE_CHECK(axis >= 0 && static_cast<size_t>(axis) < x->shape.size());
        Shape part = x->shape;
        if (part[axis].is_static()) {
          NIMBLE_CHECK_EQ(part[axis].value() % sections, 0)
              << "split: axis not divisible";
          part[axis] = Dim::Static(part[axis].value() / sections);
        } else {
          part[axis] = Dim::Any();
        }
        std::vector<Type> fields(sections, TensorType(part, x->dtype));
        return TupleType(std::move(fields));
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs& attrs) -> std::vector<ShapeVec> {
                      int64_t sections = attrs.GetInt("sections");
                      int64_t axis = attrs.GetInt("axis", 0);
                      ShapeVec part = in[0];
                      NIMBLE_CHECK_EQ(part[axis] % sections, 0);
                      part[axis] /= sections;
                      return std::vector<ShapeVec>(sections, part);
                    })
      .set_pattern(FusePattern::kOpaque);  // multi-output: keep out of fusion
}

void RegisterTake() {
  // take(data: [N, rest...], indices, axis=0) -> indices.shape + rest.
  OpRegistry::Global()
      ->Register("take")
      .set_num_inputs(2)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) -> Type {
        const auto* data = ExpectTensor(in[0], "take", 0);
        const auto* idx = ExpectTensor(in[1], "take", 1);
        NIMBLE_CHECK(idx->dtype == DataType::Int64()) << "take: indices must be int64";
        NIMBLE_CHECK_GE(data->shape.size(), 1u);
        Shape out = idx->shape;
        for (size_t i = 1; i < data->shape.size(); ++i) out.push_back(data->shape[i]);
        return TensorType(std::move(out), data->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs&) -> std::vector<ShapeVec> {
                      ShapeVec out = in[1];
                      for (size_t i = 1; i < in[0].size(); ++i) out.push_back(in[0][i]);
                      return {out};
                    })
      .set_pattern(FusePattern::kInjective);
}

void RegisterShapeManip() {
  // expand_dims(x, axis) — inserts a length-1 dim.
  OpRegistry::Global()
      ->Register("expand_dims")
      .set_num_inputs(1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) -> Type {
        const auto* x = ExpectTensor(in[0], "expand_dims", 0);
        int64_t axis = attrs.GetInt("axis", 0);
        NIMBLE_CHECK(axis >= 0 && static_cast<size_t>(axis) <= x->shape.size());
        Shape out = x->shape;
        out.insert(out.begin() + axis, Dim::Static(1));
        return TensorType(std::move(out), x->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs& attrs) -> std::vector<ShapeVec> {
                      int64_t axis = attrs.GetInt("axis", 0);
                      ShapeVec out = in[0];
                      out.insert(out.begin() + axis, 1);
                      return {out};
                    })
      .set_pattern(FusePattern::kInjective)
      .set_kernel("copy");

  // squeeze(x, axis) — removes a length-1 dim (checked at runtime if dynamic).
  OpRegistry::Global()
      ->Register("squeeze")
      .set_num_inputs(1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) -> Type {
        const auto* x = ExpectTensor(in[0], "squeeze", 0);
        int64_t axis = attrs.GetInt("axis", 0);
        NIMBLE_CHECK(axis >= 0 && static_cast<size_t>(axis) < x->shape.size());
        if (x->shape[axis].is_static()) {
          NIMBLE_CHECK_EQ(x->shape[axis].value(), 1) << "squeeze: dim not 1";
        }
        Shape out = x->shape;
        out.erase(out.begin() + axis);
        return TensorType(std::move(out), x->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs& attrs) -> std::vector<ShapeVec> {
                      int64_t axis = attrs.GetInt("axis", 0);
                      ShapeVec out = in[0];
                      NIMBLE_CHECK_EQ(out[axis], 1);
                      out.erase(out.begin() + axis);
                      return {out};
                    })
      .set_pattern(FusePattern::kInjective)
      .set_kernel("copy");

  // transpose(x, axes)
  OpRegistry::Global()
      ->Register("transpose")
      .set_num_inputs(1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) -> Type {
        const auto* x = ExpectTensor(in[0], "transpose", 0);
        auto axes = attrs.GetIntVec("axes");
        NIMBLE_CHECK_EQ(axes.size(), x->shape.size()) << "transpose: bad axes";
        Shape out(x->shape.size());
        for (size_t i = 0; i < axes.size(); ++i) out[i] = x->shape[axes[i]];
        return TensorType(std::move(out), x->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs& attrs) -> std::vector<ShapeVec> {
                      auto axes = attrs.GetIntVec("axes");
                      ShapeVec out(in[0].size());
                      for (size_t i = 0; i < axes.size(); ++i) out[i] = in[0][axes[i]];
                      return {out};
                    })
      .set_pattern(FusePattern::kInjective);

  // reshape(x) with attr newshape; entries: >0 fixed, -1 infer one, 0 copy
  // the corresponding input dim. Lowered to the ReshapeTensor instruction.
  OpRegistry::Global()
      ->Register("reshape")
      .set_num_inputs(1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) -> Type {
        const auto* x = ExpectTensor(in[0], "reshape", 0);
        auto newshape = attrs.GetIntVec("newshape");
        Shape out;
        int infer_at = -1;
        bool dynamic_elems = false;
        int64_t known = 1;
        for (size_t i = 0; i < newshape.size(); ++i) {
          if (newshape[i] == -1) {
            NIMBLE_CHECK_EQ(infer_at, -1) << "reshape: multiple -1";
            infer_at = static_cast<int>(i);
            out.push_back(Dim::Any());  // refined below if possible
          } else if (newshape[i] == 0) {
            NIMBLE_CHECK_LT(i, x->shape.size()) << "reshape: 0 out of range";
            out.push_back(x->shape[i]);
            if (!x->shape[i].is_static()) {
              dynamic_elems = true;
            } else {
              known *= x->shape[i].value();
            }
          } else {
            out.push_back(Dim::Static(newshape[i]));
            known *= newshape[i];
          }
        }
        // Infer the -1 entry when the input element count is fully static.
        if (infer_at >= 0 && !dynamic_elems && x->IsFullyStatic()) {
          int64_t total = 1;
          for (const Dim& d : x->shape) total *= d.value();
          NIMBLE_CHECK_EQ(total % known, 0) << "reshape: sizes do not divide";
          out[infer_at] = Dim::Static(total / known);
        }
        return TensorType(std::move(out), x->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs& attrs) -> std::vector<ShapeVec> {
                      auto newshape = attrs.GetIntVec("newshape");
                      ShapeVec out;
                      int64_t known = 1;
                      int infer_at = -1;
                      for (size_t i = 0; i < newshape.size(); ++i) {
                        if (newshape[i] == -1) {
                          infer_at = static_cast<int>(i);
                          out.push_back(-1);
                        } else if (newshape[i] == 0) {
                          out.push_back(in[0][i]);
                          known *= in[0][i];
                        } else {
                          out.push_back(newshape[i]);
                          known *= newshape[i];
                        }
                      }
                      int64_t total =
                          std::accumulate(in[0].begin(), in[0].end(),
                                          int64_t{1}, std::multiplies<>());
                      if (infer_at >= 0) {
                        NIMBLE_CHECK_EQ(total % known, 0);
                        out[infer_at] = total / known;
                      } else {
                        NIMBLE_CHECK_EQ(total, known) << "reshape: element count";
                      }
                      return {out};
                    })
      .set_pattern(FusePattern::kOpaque)  // becomes a ReshapeTensor instruction
      .set_kernel("vm.reshape_tensor");
}

void RegisterReduce() {
  // sum(x, axis, keepdims)
  OpRegistry::Global()
      ->Register("sum")
      .set_num_inputs(1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) -> Type {
        const auto* x = ExpectTensor(in[0], "sum", 0);
        int64_t axis = attrs.GetInt("axis", -1);
        bool keepdims = attrs.GetInt("keepdims", 0) != 0;
        if (axis < 0) axis += static_cast<int64_t>(x->shape.size());
        NIMBLE_CHECK(axis >= 0 && static_cast<size_t>(axis) < x->shape.size());
        Shape out = x->shape;
        if (keepdims) {
          out[axis] = Dim::Static(1);
        } else {
          out.erase(out.begin() + axis);
        }
        return TensorType(std::move(out), x->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs& attrs) -> std::vector<ShapeVec> {
                      int64_t axis = attrs.GetInt("axis", -1);
                      bool keepdims = attrs.GetInt("keepdims", 0) != 0;
                      ShapeVec out = in[0];
                      if (axis < 0) axis += static_cast<int64_t>(out.size());
                      if (keepdims) {
                        out[axis] = 1;
                      } else {
                        out.erase(out.begin() + axis);
                      }
                      return {out};
                    })
      .set_pattern(FusePattern::kCommReduce);
}

void RegisterCast() {
  OpRegistry::Global()
      ->Register("cast")
      .set_num_inputs(1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) -> Type {
        const auto* x = ExpectTensor(in[0], "cast", 0);
        DataType dtype = DataType::FromString(attrs.GetStr("dtype", "float32"));
        return TensorType(x->shape, dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent, IdentityShapeFn)
      .set_pattern(FusePattern::kElemWise);
}

// ---- dynamic-output-shape operators (§4.2) ---------------------------------

void RegisterArange() {
  // arange(start, stop, step) with int64 scalar inputs — the canonical
  // data-dependent shape function.
  OpRegistry::Global()
      ->Register("arange")
      .set_num_inputs(3)
      .set_type_rel([](const std::vector<Type>& in, const Attrs&) -> Type {
        for (int i = 0; i < 3; ++i) {
          const auto* t = ExpectTensor(in[i], "arange", i);
          NIMBLE_CHECK(t->shape.empty()) << "arange: inputs must be scalars";
          NIMBLE_CHECK(t->dtype == DataType::Int64());
        }
        return TensorType(Shape{Dim::Any()}, DataType::Int64());
      })
      .set_shape_fn(ShapeFuncMode::kDataDependent,
                    [](const std::vector<ShapeVec>&,
                       const std::vector<runtime::NDArray>& data,
                       const Attrs&) -> std::vector<ShapeVec> {
                      NIMBLE_CHECK_EQ(data.size(), 3u)
                          << "arange shape function needs input values";
                      int64_t start = data[0].data<int64_t>()[0];
                      int64_t stop = data[1].data<int64_t>()[0];
                      int64_t step = data[2].data<int64_t>()[0];
                      NIMBLE_CHECK_NE(step, 0) << "arange: step must be nonzero";
                      int64_t n = step > 0 ? (stop - start + step - 1) / step
                                           : (start - stop - step - 1) / (-step);
                      return {{std::max<int64_t>(n, 0)}};
                    })
      .set_pattern(FusePattern::kOpaque);
}

void RegisterUnique() {
  // unique(x: [N]) -> sorted distinct values; output size is data dependent.
  OpRegistry::Global()
      ->Register("unique")
      .set_num_inputs(1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs&) -> Type {
        const auto* x = ExpectTensor(in[0], "unique", 0);
        NIMBLE_CHECK_EQ(x->shape.size(), 1u) << "unique: input must be 1-D";
        return TensorType(Shape{Dim::Any()}, x->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataDependent,
                    [](const std::vector<ShapeVec>&,
                       const std::vector<runtime::NDArray>& data,
                       const Attrs&) -> std::vector<ShapeVec> {
                      NIMBLE_CHECK_EQ(data.size(), 1u);
                      const auto& x = data[0];
                      NIMBLE_CHECK(x.dtype() == DataType::Int64())
                          << "unique kernel supports int64";
                      std::vector<int64_t> vals(
                          x.data<int64_t>(), x.data<int64_t>() + x.num_elements());
                      std::sort(vals.begin(), vals.end());
                      vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
                      return {{static_cast<int64_t>(vals.size())}};
                    })
      .set_pattern(FusePattern::kOpaque);
}

void RegisterNMS() {
  // nn.nms(boxes: [N, 5]) with rows (score, x1, y1, x2, y2).
  // Upper-bound shape function (§4.2): computing the exact output size is as
  // expensive as the kernel itself, so allocate for N rows and have the
  // kernel report the true count; callers slice with slice_rows.
  OpRegistry::Global()
      ->Register("nn.nms")
      .set_num_inputs(1)
      .set_num_outputs(2)
      .set_type_rel([](const std::vector<Type>& in, const Attrs&) -> Type {
        const auto* x = ExpectTensor(in[0], "nn.nms", 0);
        NIMBLE_CHECK_EQ(x->shape.size(), 2u);
        return TupleType({TensorType(x->shape, x->dtype),
                          ir::ScalarType(DataType::Int64())});
      })
      .set_shape_fn(ShapeFuncMode::kUpperBound,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs&) -> std::vector<ShapeVec> {
                      return {in[0], {}};
                    })
      .set_pattern(FusePattern::kOpaque);

  // slice_rows(x: [N, rest...], n: scalar int64) -> [n, rest...]; pairs with
  // upper-bound ops to recover the precise shape.
  OpRegistry::Global()
      ->Register("slice_rows")
      .set_num_inputs(2)
      .set_type_rel([](const std::vector<Type>& in, const Attrs&) -> Type {
        const auto* x = ExpectTensor(in[0], "slice_rows", 0);
        const auto* n = ExpectTensor(in[1], "slice_rows", 1);
        NIMBLE_CHECK(n->shape.empty() && n->dtype == DataType::Int64())
            << "slice_rows: count must be an int64 scalar";
        Shape out = x->shape;
        out[0] = Dim::Any();
        return TensorType(std::move(out), x->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataDependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>& data,
                       const Attrs&) -> std::vector<ShapeVec> {
                      NIMBLE_CHECK_EQ(data.size(), 2u);
                      int64_t n = data[1].data<int64_t>()[0];
                      ShapeVec out = in[0];
                      NIMBLE_CHECK_LE(n, out[0]) << "slice_rows: count exceeds rows";
                      out[0] = n;
                      return {out};
                    })
      .set_pattern(FusePattern::kOpaque);
}

void RegisterWhere() {
  // where(cond, a, b) -> a[i] where cond else b[i]. The condition is bool
  // and broadcasts against the branches (which must agree); selection is an
  // exact bit copy — no arithmetic — which is what lets batched recurrent
  // entries (@main_batched, src/vm/batch_spec.h) freeze finished sequences
  // with results bit-identical to per-request execution.
  OpRegistry::Global()
      ->Register("where")
      .set_num_inputs(3)
      .set_type_rel([](const std::vector<Type>& in, const Attrs&) -> Type {
        const auto* cond = ExpectTensor(in[0], "where", 0);
        const auto* a = ExpectTensor(in[1], "where", 1);
        const auto* b = ExpectTensor(in[2], "where", 2);
        NIMBLE_CHECK(cond->dtype == DataType::Bool())
            << "where: condition must be bool";
        NIMBLE_CHECK(a->dtype == b->dtype) << "where: branch dtype mismatch";
        NIMBLE_CHECK_EQ(a->shape.size(), b->shape.size())
            << "where: branch rank mismatch";
        Shape out = a->shape;
        for (size_t i = 0; i < out.size(); ++i) {
          out[i] = UnifyDim(a->shape[i], b->shape[i], "where");
        }
        NIMBLE_CHECK_LE(cond->shape.size(), out.size())
            << "where: condition rank exceeds the branches";
        for (size_t i = 0; i < cond->shape.size(); ++i) {
          BroadcastDim(cond->shape[cond->shape.size() - 1 - i],
                       out[out.size() - 1 - i], "where");
        }
        return TensorType(std::move(out), a->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs&) -> std::vector<ShapeVec> {
                      return {in[1]};
                    })
      .set_pattern(FusePattern::kOpaque);  // exact selection: keep unfused
}

// ---- compiler-internal dialect ops (§4.3, §4.4) ----------------------------

void RegisterDialect() {
  auto& reg = *OpRegistry::Global();

  // vm.shape_of(x) -> Tensor[(rank,), int64]; lowered to the ShapeOf
  // instruction. Defaults to the CPU device domain (§4.4).
  reg.Register("vm.shape_of")
      .set_num_inputs(1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs&) -> Type {
        const auto* x = ExpectTensor(in[0], "vm.shape_of", 0);
        return TensorType({Dim::Static(static_cast<int64_t>(x->shape.size()))},
                          DataType::Int64());
      })
      .set_pattern(FusePattern::kOpaque);

  // memory.alloc_storage() with attrs {size, alignment, device}; `size` may
  // instead come from the first argument (an int64 scalar) when dynamic.
  reg.Register("memory.alloc_storage")
      .set_num_inputs(-1)
      .set_type_rel([](const std::vector<Type>&, const Attrs&) -> Type {
        return ir::ADTType("vm.Storage");
      })
      .set_pattern(FusePattern::kOpaque);

  // memory.alloc_tensor(storage, shape) with attrs {offset, dtype};
  // `shape` is a shape tensor (possibly produced by a shape function).
  reg.Register("memory.alloc_tensor")
      .set_num_inputs(2)
      .set_type_rel([](const std::vector<Type>&, const Attrs& attrs) -> Type {
        int64_t rank = attrs.GetInt("rank");
        DataType dtype = DataType::FromString(attrs.GetStr("dtype", "float32"));
        Shape shape(static_cast<size_t>(rank), Dim::Any());
        return TensorType(std::move(shape), dtype);
      })
      .set_pattern(FusePattern::kOpaque);

  // memory.invoke_mut(op_name attr; inputs..., outputs...) — destination-
  // passing kernel invocation; returns nothing meaningful.
  reg.Register("memory.invoke_mut")
      .set_num_inputs(-1)
      .set_type_rel([](const std::vector<Type>&, const Attrs&) -> Type {
        return TupleType({});
      })
      .set_pattern(FusePattern::kOpaque);

  // memory.kill(x) — frees a tensor before frame exit (§4.3).
  reg.Register("memory.kill")
      .set_num_inputs(1)
      .set_type_rel([](const std::vector<Type>&, const Attrs&) -> Type {
        return TupleType({});
      })
      .set_pattern(FusePattern::kOpaque);

  // vm.shape_func(shape-in..., shape-out...) with attrs naming the op whose
  // shape function to run; writes output shapes into the out tensors.
  reg.Register("vm.shape_func")
      .set_num_inputs(-1)
      .set_type_rel([](const std::vector<Type>&, const Attrs&) -> Type {
        return TupleType({});
      })
      .set_pattern(FusePattern::kOpaque);

  // device_copy(x) with attrs {src_device, dst_device} (§4.4).
  reg.Register("device_copy")
      .set_num_inputs(1)
      .set_type_rel(IdentityRel)
      .set_shape_fn(ShapeFuncMode::kDataIndependent, IdentityShapeFn)
      .set_pattern(FusePattern::kOpaque);

  // vm.reshape_tensor(x, shape_tensor) — zero-copy reshape instruction.
  reg.Register("vm.reshape_tensor")
      .set_num_inputs(2)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) -> Type {
        const auto* x = ExpectTensor(in[0], "vm.reshape_tensor", 0);
        int64_t rank = attrs.GetInt("rank");
        Shape shape(static_cast<size_t>(rank), Dim::Any());
        return TensorType(std::move(shape), x->dtype);
      })
      .set_pattern(FusePattern::kOpaque);

  // copy(x) — materializes a tensor with a (possibly) new layout; kernel for
  // expand_dims/squeeze and the generic fallback.
  reg.Register("copy")
      .set_num_inputs(1)
      .set_type_rel(IdentityRel)
      .set_shape_fn(ShapeFuncMode::kDataIndependent, IdentityShapeFn)
      .set_pattern(FusePattern::kElemWise);
}

// ---- fused composite ops produced by src/pass/fuse.cc ----------------------

void RegisterFusedOps() {
  auto& reg = *OpRegistry::Global();

  // fused_elemwise(root, extras...): shape-preserving chain on the root.
  reg.Register("fused_elemwise")
      .set_num_inputs(-1)
      .set_type_rel(IdentityRel)
      .set_shape_fn(ShapeFuncMode::kDataIndependent, IdentityShapeFn)
      .set_pattern(FusePattern::kOpaque);

  // fused_dense(x, w, extras...): dense followed by an epilogue chain.
  reg.Register("fused_dense")
      .set_num_inputs(-1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs& attrs) {
        return DenseRel(in, attrs, "fused_dense");
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent, DenseShapeFn)
      .set_pattern(FusePattern::kOpaque);

  // fused_batch_matmul(a, b, extras...): batched matmul + epilogue chain.
  reg.Register("fused_batch_matmul")
      .set_num_inputs(-1)
      .set_type_rel([](const std::vector<Type>& in, const Attrs&) -> Type {
        const auto* a = ExpectTensor(in[0], "fused_batch_matmul", 0);
        const auto* b = ExpectTensor(in[1], "fused_batch_matmul", 1);
        Dim batch = UnifyDim(a->shape[0], b->shape[0], "fused_batch_matmul");
        UnifyDim(a->shape[2], b->shape[2], "fused_batch_matmul");
        return TensorType({batch, a->shape[1], b->shape[1]}, a->dtype);
      })
      .set_shape_fn(ShapeFuncMode::kDataIndependent,
                    [](const std::vector<ShapeVec>& in,
                       const std::vector<runtime::NDArray>&,
                       const Attrs&) -> std::vector<ShapeVec> {
                      return {{in[0][0], in[0][1], in[1][1]}};
                    })
      .set_pattern(FusePattern::kOpaque);
}

void RegisterAll() {
  for (const char* name : {"add", "subtract", "multiply", "divide", "maximum",
                           "minimum"}) {
    RegisterBroadcastBinary(name);
  }
  for (const char* name : {"less", "greater", "equal", "less_equal",
                           "greater_equal"}) {
    RegisterCompareBinary(name);
  }
  for (const char* name : {"sigmoid", "tanh", "relu", "exp", "negative",
                           "sqrt", "erf"}) {
    RegisterElemwiseUnary(name);
  }
  RegisterDense();
  RegisterBiasAdd();
  RegisterBatchMatmul();
  RegisterSoftmaxLayerNorm();
  RegisterLSTMCell();
  RegisterConcat();
  RegisterSplit();
  RegisterTake();
  RegisterShapeManip();
  RegisterReduce();
  RegisterCast();
  RegisterArange();
  RegisterUnique();
  RegisterNMS();
  RegisterWhere();
  RegisterDialect();
  RegisterFusedOps();
  RegisterElemwiseUnary("gelu");
}

}  // namespace

void EnsureOpsRegistered() {
  static bool done = [] {
    RegisterAll();
    return true;
  }();
  (void)done;
}

}  // namespace op
}  // namespace nimble
