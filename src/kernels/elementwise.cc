#include "src/kernels/elementwise.h"

#include <cstring>

#include "src/kernels/registry.h"

namespace nimble {
namespace kernels {

using runtime::DataType;
using runtime::DTypeCode;
using runtime::NDArray;
using runtime::ShapeVec;

bool EwOpFromName(const std::string& name, EwOp* out, bool* is_binary) {
  struct Entry {
    const char* name;
    EwOp op;
    bool binary;
  };
  static const Entry table[] = {
      {"add", EwOp::kAdd, true},           {"subtract", EwOp::kSubtract, true},
      {"multiply", EwOp::kMultiply, true}, {"divide", EwOp::kDivide, true},
      {"maximum", EwOp::kMaximum, true},   {"minimum", EwOp::kMinimum, true},
      {"sigmoid", EwOp::kSigmoid, false},  {"tanh", EwOp::kTanh, false},
      {"relu", EwOp::kRelu, false},        {"exp", EwOp::kExp, false},
      {"negative", EwOp::kNegative, false},{"sqrt", EwOp::kSqrt, false},
      {"erf", EwOp::kErf, false},          {"gelu", EwOp::kGelu, false},
  };
  for (const Entry& e : table) {
    if (name == e.name) {
      *out = e.op;
      *is_binary = e.binary;
      return true;
    }
  }
  return false;
}

namespace {

/// Row-major strides aligned to `out_rank` with stride 0 on broadcast dims.
std::vector<int64_t> BroadcastStrides(const ShapeVec& shape, size_t out_rank,
                                      const ShapeVec& out_shape) {
  std::vector<int64_t> strides(out_rank, 0);
  int64_t running = 1;
  for (size_t i = 0; i < shape.size(); ++i) {
    size_t src = shape.size() - 1 - i;
    size_t dst = out_rank - 1 - i;
    if (shape[src] == out_shape[dst]) {
      strides[dst] = running;
    } else {
      NIMBLE_CHECK_EQ(shape[src], 1) << "broadcast shape mismatch at runtime";
      strides[dst] = 0;
    }
    running *= shape[src];
  }
  return strides;
}

/// out = Op(a, b) with numpy broadcasting, computed in `T` (float for
/// float32, int64_t for the integer dtypes). Every shape runs through
/// EwLoop: identical shapes and a scalar operand as one loop, anything else
/// as one EwLoop per row of the output's last axis.
template <EwOp Op, typename T, typename TElem>
void BinaryLoop(const NDArray& a, const NDArray& b, const NDArray& out) {
  const ShapeVec& os = out.shape();
  int64_t n = out.num_elements();
  const TElem* pa = a.data<TElem>();
  const TElem* pb = b.data<TElem>();
  TElem* po = out.data<TElem>();
  if (a.shape() == os && b.shape() == os) {
    EwLoop<Op, 1, 1, T>(po, pa, pb, n);
    return;
  }
  if (b.num_elements() == 1 && a.shape() == os) {
    TElem s = pb[0];
    EwLoop<Op, 1, 0, T>(po, pa, &s, n);
    return;
  }
  if (a.num_elements() == 1 && b.shape() == os) {
    TElem s = pa[0];
    EwLoop<Op, 0, 1, T>(po, &s, pb, n);
    return;
  }
  // General strided broadcast, one row of the last axis at a time. Along
  // that axis each operand's stride is 1 or 0 (broadcast).
  size_t rank = os.size();
  auto sa = BroadcastStrides(a.shape(), rank, os);
  auto sb = BroadcastStrides(b.shape(), rank, os);
  int64_t inner = os[rank - 1];
  int64_t kind = sa[rank - 1] * 2 + sb[rank - 1];
  std::vector<int64_t> idx(rank, 0);
  int64_t offa = 0, offb = 0;
  for (int64_t row = 0; row < n; row += inner) {
    switch (kind) {
      case 3: EwLoop<Op, 1, 1, T>(po + row, pa + offa, pb + offb, inner); break;
      case 2: EwLoop<Op, 1, 0, T>(po + row, pa + offa, pb + offb, inner); break;
      case 1: EwLoop<Op, 0, 1, T>(po + row, pa + offa, pb + offb, inner); break;
      default: EwLoop<Op, 0, 0, T>(po + row, pa + offa, pb + offb, inner);
    }
    for (size_t d = rank - 1; d-- > 0;) {
      idx[d]++;
      offa += sa[d];
      offb += sb[d];
      if (idx[d] < os[d]) break;
      offa -= sa[d] * os[d];
      offb -= sb[d] * os[d];
      idx[d] = 0;
    }
  }
}

template <typename TIn, typename TOut, typename F>
void CompareLoop(F f, const NDArray& a, const NDArray& b, const NDArray& out) {
  const ShapeVec& os = out.shape();
  int64_t n = out.num_elements();
  const TIn* pa = a.data<TIn>();
  const TIn* pb = b.data<TIn>();
  TOut* po = static_cast<TOut*>(out.raw_data());
  if (a.shape() == os && b.shape() == os) {
    for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]) ? 1 : 0;
    return;
  }
  size_t rank = os.size();
  auto sa = BroadcastStrides(a.shape(), rank, os);
  auto sb = BroadcastStrides(b.shape(), rank, os);
  std::vector<int64_t> idx(rank, 0);
  int64_t offa = 0, offb = 0;
  for (int64_t linear = 0; linear < n; ++linear) {
    po[linear] = f(pa[offa], pb[offb]) ? 1 : 0;
    for (size_t d = rank; d-- > 0;) {
      idx[d]++;
      offa += sa[d];
      offb += sb[d];
      if (idx[d] < os[d]) break;
      offa -= sa[d] * os[d];
      offb -= sb[d] * os[d];
      idx[d] = 0;
    }
  }
}

void RegisterBinary(const std::string& name, EwOp op) {
  KernelRegistry::Global()->Register(
      name, [op](const std::vector<NDArray>& in, const std::vector<NDArray>& out,
                 const ir::Attrs&) {
        NIMBLE_CHECK_EQ(in.size(), 2u);
        NIMBLE_CHECK_EQ(out.size(), 1u);
        VisitBinaryEwOp(op, [&](auto tag) {
          constexpr EwOp kOp = decltype(tag)::value;
          switch (in[0].dtype().code()) {
            case DTypeCode::kFloat32:
              BinaryLoop<kOp, float, float>(in[0], in[1], out[0]);
              break;
            case DTypeCode::kInt64:
              BinaryLoop<kOp, int64_t, int64_t>(in[0], in[1], out[0]);
              break;
            case DTypeCode::kInt32:
              BinaryLoop<kOp, int64_t, int32_t>(in[0], in[1], out[0]);
              break;
            default:
              NIMBLE_FATAL() << "binary elementwise: unsupported dtype "
                             << in[0].dtype().ToString();
          }
        });
      });
}

template <typename F>
void RegisterCompare(const std::string& name, F cmp) {
  KernelRegistry::Global()->Register(
      name, [cmp](const std::vector<NDArray>& in, const std::vector<NDArray>& out,
                  const ir::Attrs&) {
        NIMBLE_CHECK_EQ(in.size(), 2u);
        switch (in[0].dtype().code()) {
          case DTypeCode::kFloat32:
            CompareLoop<float, uint8_t>(cmp, in[0], in[1], out[0]);
            break;
          case DTypeCode::kInt64:
            CompareLoop<int64_t, uint8_t>(cmp, in[0], in[1], out[0]);
            break;
          default:
            NIMBLE_FATAL() << "compare: unsupported dtype";
        }
      });
}

void RegisterUnary(const std::string& name, EwOp op) {
  KernelRegistry::Global()->Register(
      name, [op](const std::vector<NDArray>& in, const std::vector<NDArray>& out,
                 const ir::Attrs&) {
        NIMBLE_CHECK_EQ(in.size(), 1u);
        NIMBLE_CHECK_EQ(out.size(), 1u);
        NIMBLE_CHECK(in[0].dtype() == DataType::Float32())
            << "unary elementwise expects float32";
        const float* pa = in[0].data<float>();
        VisitUnaryEwOp(op, [&](auto tag) {
          EwLoop<decltype(tag)::value, 1, 0, float>(
              out[0].data<float>(), pa, pa, out[0].num_elements());
        });
      });
}

}  // namespace

void BroadcastBinaryF32(EwOp op, const NDArray& a, const NDArray& b,
                        const NDArray& out) {
  VisitBinaryEwOp(op, [&](auto tag) {
    BinaryLoop<decltype(tag)::value, float, float>(a, b, out);
  });
}

void RegisterElemwiseKernels() {
  RegisterBinary("add", EwOp::kAdd);
  RegisterBinary("subtract", EwOp::kSubtract);
  RegisterBinary("multiply", EwOp::kMultiply);
  RegisterBinary("divide", EwOp::kDivide);
  RegisterBinary("maximum", EwOp::kMaximum);
  RegisterBinary("minimum", EwOp::kMinimum);

  RegisterCompare("less", [](auto a, auto b) { return a < b; });
  RegisterCompare("greater", [](auto a, auto b) { return a > b; });
  RegisterCompare("equal", [](auto a, auto b) { return a == b; });
  RegisterCompare("less_equal", [](auto a, auto b) { return a <= b; });
  RegisterCompare("greater_equal", [](auto a, auto b) { return a >= b; });

  RegisterUnary("sigmoid", EwOp::kSigmoid);
  RegisterUnary("tanh", EwOp::kTanh);
  RegisterUnary("relu", EwOp::kRelu);
  RegisterUnary("exp", EwOp::kExp);
  RegisterUnary("negative", EwOp::kNegative);
  RegisterUnary("sqrt", EwOp::kSqrt);
  RegisterUnary("erf", EwOp::kErf);
  RegisterUnary("gelu", EwOp::kGelu);

  // cast(x) -> attrs.dtype
  KernelRegistry::Global()->Register(
      "cast", [](const std::vector<NDArray>& in, const std::vector<NDArray>& out,
                 const ir::Attrs& attrs) {
        NIMBLE_CHECK_EQ(in.size(), 1u);
        const NDArray& x = in[0];
        const NDArray& y = out[0];
        int64_t n = x.num_elements();
        auto convert = [&](auto read) {
          switch (y.dtype().code()) {
            case DTypeCode::kFloat32: {
              float* p = y.data<float>();
              for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(read(i));
              break;
            }
            case DTypeCode::kInt64: {
              int64_t* p = y.data<int64_t>();
              for (int64_t i = 0; i < n; ++i) p[i] = static_cast<int64_t>(read(i));
              break;
            }
            case DTypeCode::kInt32: {
              int32_t* p = y.data<int32_t>();
              for (int64_t i = 0; i < n; ++i) p[i] = static_cast<int32_t>(read(i));
              break;
            }
            default:
              NIMBLE_FATAL() << "cast: unsupported target dtype";
          }
        };
        switch (x.dtype().code()) {
          case DTypeCode::kFloat32:
            convert([&](int64_t i) { return x.data<float>()[i]; });
            break;
          case DTypeCode::kInt64:
            convert([&](int64_t i) { return x.data<int64_t>()[i]; });
            break;
          case DTypeCode::kInt32:
            convert([&](int64_t i) { return x.data<int32_t>()[i]; });
            break;
          case DTypeCode::kBool:
          case DTypeCode::kUInt8:
            convert([&](int64_t i) {
              return static_cast<int64_t>(static_cast<uint8_t*>(x.raw_data())[i]);
            });
            break;
          default:
            NIMBLE_FATAL() << "cast: unsupported source dtype";
        }
      });

  // where(cond, a, b): exact per-element bit selection. `a`, `b`, and the
  // output share one shape; `cond` (bool) broadcasts against it. Selection
  // copies bits — no float arithmetic — so a masked batched recurrence
  // (src/vm/batch_spec.h) reproduces per-request results exactly.
  KernelRegistry::Global()->Register(
      "where",
      [](const std::vector<NDArray>& in, const std::vector<NDArray>& out,
         const ir::Attrs&) {
        NIMBLE_CHECK_EQ(in.size(), 3u);
        const NDArray& cond = in[0];
        const NDArray& a = in[1];
        const NDArray& b = in[2];
        const NDArray& y = out[0];
        NIMBLE_CHECK(a.shape() == y.shape() && b.shape() == y.shape())
            << "where: branches must match the output shape";
        NIMBLE_CHECK(a.dtype() == b.dtype() && a.dtype() == y.dtype())
            << "where: dtype mismatch";
        const auto* pc = static_cast<const uint8_t*>(cond.raw_data());
        const char* pa = static_cast<const char*>(a.raw_data());
        const char* pb = static_cast<const char*>(b.raw_data());
        char* py = static_cast<char*>(y.raw_data());
        size_t elem = y.dtype().bytes();
        int64_t n = y.num_elements();
        // Fast path for the batched-recurrence shape: cond [B, 1] selecting
        // whole rows of [B, W] states — one memcpy per row.
        if (y.ndim() == 2 && cond.ndim() == 2 &&
            cond.shape()[0] == y.shape()[0] && cond.shape()[1] == 1) {
          size_t row = static_cast<size_t>(y.shape()[1]) * elem;
          for (int64_t r = 0; r < y.shape()[0]; ++r) {
            std::memcpy(py + r * row, (pc[r] ? pa : pb) + r * row, row);
          }
          return;
        }
        size_t rank = y.shape().size();
        auto sc = BroadcastStrides(cond.shape(), rank, y.shape());
        std::vector<int64_t> idx(rank, 0);
        int64_t offc = 0;
        for (int64_t linear = 0; linear < n; ++linear) {
          const char* src = pc[offc] ? pa : pb;
          std::memcpy(py + linear * elem, src + linear * elem, elem);
          for (size_t d = rank; d-- > 0;) {
            idx[d]++;
            offc += sc[d];
            if (idx[d] < y.shape()[d]) break;
            offc -= sc[d] * y.shape()[d];
            idx[d] = 0;
          }
        }
      });

  // copy(x): raw memcpy; implements expand_dims/squeeze materialization.
  KernelRegistry::Global()->Register(
      "copy", [](const std::vector<NDArray>& in, const std::vector<NDArray>& out,
                 const ir::Attrs&) {
        NIMBLE_CHECK_EQ(in[0].nbytes(), out[0].nbytes());
        std::memcpy(out[0].raw_data(), in[0].raw_data(), in[0].nbytes());
      });
}

}  // namespace kernels
}  // namespace nimble
