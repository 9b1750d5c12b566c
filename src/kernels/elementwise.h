// Elementwise/broadcast kernel building blocks, shared with the fused
// kernels (src/kernels/fused.cc) and the codegen dispatch layer.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>

#include "src/runtime/ndarray.h"
#include "src/support/logging.h"

// The elementwise loop core below (EwLoop) must vectorize, including the
// FastExpF32-based sigmoid and tanh. GCC turns their selects back into
// branches and will not if-convert them while it must assume floating-point
// operations can trap, so under GCC the loop is compiled with
// -fno-trapping-math. That option only drops the assumption that FP
// exceptions are observable; every operation still rounds exactly as
// written (no reassociation, no contraction, NaN/inf/denormal semantics
// unchanged). The dynamic cost model makes -O2 builds (the default
// RelWithDebInfo, which runs the tests) vectorize the loop as -O3 does. The
// scalar helpers are always inlined so the option mismatch does not keep
// them out of the loop.
#if defined(__GNUC__) && !defined(__clang__)
#define NIMBLE_EW_LOOP_OPTS \
  __attribute__((optimize("no-trapping-math", "vect-cost-model=dynamic")))
#else
#define NIMBLE_EW_LOOP_OPTS
#endif
#if defined(__GNUC__) || defined(__clang__)
#define NIMBLE_EW_INLINE inline __attribute__((always_inline))
#else
#define NIMBLE_EW_INLINE inline
#endif

namespace nimble {
namespace kernels {

/// Opcode for a scalar elementwise operation. Shared between standalone
/// kernels and fused chains; stable values (serialized in executables).
enum class EwOp : int64_t {
  kAdd = 0,
  kSubtract = 1,
  kMultiply = 2,
  kDivide = 3,
  kMaximum = 4,
  kMinimum = 5,
  kSigmoid = 6,
  kTanh = 7,
  kRelu = 8,
  kExp = 9,
  kNegative = 10,
  kSqrt = 11,
  kErf = 12,
  kGelu = 13,
};

// ---- fast deterministic transcendentals ------------------------------------
//
// Serving-hot sigmoid/tanh (the LSTM cell evaluates 5*hidden of them per
// row per timestep) route through these instead of libm: a Cephes-style
// degree-5 polynomial exp (~2 ulp) built from plain float arithmetic and a
// power-of-two bit splice. Two properties matter more than raw accuracy:
//   - deterministic: same bits for the same input on every platform and at
//     every optimization level (no libm version dependence), which the
//     serving layer's bit-identity contract relies on;
//   - one implementation everywhere: standalone kernels, fused chains, and
//     nn.lstm_cell all call these, so fused-vs-unfused and batched-vs-
//     per-request execution agree exactly.
// Error vs libm is ~1e-7 relative — far inside every model tolerance here.

/// exp(x) for float32, clamped to the finite range (|x| > 88 saturates
/// instead of overflowing to inf). Written without early returns (both
/// clamps are selects) so loops over it vectorize; the arithmetic is the
/// same for every input, and inputs below -88 select 0.
NIMBLE_EW_INLINE float FastExpF32(float x) {
  bool underflow = x < -88.0f;
  x = x > 88.0f ? 88.0f : x;
  x = underflow ? -88.0f : x;
  // n = round(x / ln 2); reduce x to r = x - n*ln2 in [-ln2/2, ln2/2].
  float z = x * 1.44269504088896341f + 0.5f;
  float nf = static_cast<float>(static_cast<int32_t>(z - (z < 0.0f)));
  float r = x - nf * 0.693359375f;      // ln2 split high
  r -= nf * -2.12194440e-4f;            // ln2 split low
  // Degree-5 polynomial for exp(r) on the reduced interval (Cephes expf).
  float rr = r * r;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  float y = p * rr + r + 1.0f;
  // Splice 2^n into the exponent bits (n is in [-127, 127] after clamping).
  int32_t n = static_cast<int32_t>(nf);
  union {
    int32_t i;
    float f;
  } pow2;
  pow2.i = (n + 127) << 23;
  return underflow ? 0.0f : y * pow2.f;
}

/// 1 / (1 + exp(-x)) via FastExpF32.
NIMBLE_EW_INLINE float FastSigmoidF32(float x) {
  return 1.0f / (1.0f + FastExpF32(-x));
}

/// tanh(x) = sign(x) * (1 - 2 / (exp(2|x|) + 1)), saturating past |x| > 9
/// (a select, like FastExpF32's clamps).
NIMBLE_EW_INLINE float FastTanhF32(float x) {
  float ax = x < 0.0f ? -x : x;
  float e = FastExpF32(2.0f * ax);
  float t = 1.0f - 2.0f / (e + 1.0f);
  t = ax > 9.0f ? 1.0f : t;
  return x < 0.0f ? -t : t;
}

/// The scalar semantics of one EwOp, fixed at compile time. `T` is the
/// computation type: float for every op, int64_t for the binary ones (the
/// integer kernels). Unary ops ignore `b`.
template <EwOp Op, typename T>
NIMBLE_EW_INLINE T EwScalar(T a, T b) {
  if constexpr (Op == EwOp::kAdd) return a + b;
  else if constexpr (Op == EwOp::kSubtract) return a - b;
  else if constexpr (Op == EwOp::kMultiply) return a * b;
  else if constexpr (Op == EwOp::kDivide) return a / b;
  else if constexpr (Op == EwOp::kMaximum) return a > b ? a : b;
  else if constexpr (Op == EwOp::kMinimum) return a < b ? a : b;
  else if constexpr (Op == EwOp::kSigmoid) return FastSigmoidF32(a);
  else if constexpr (Op == EwOp::kTanh) return FastTanhF32(a);
  else if constexpr (Op == EwOp::kRelu) return a > 0.0f ? a : 0.0f;
  else if constexpr (Op == EwOp::kExp) return std::exp(a);
  else if constexpr (Op == EwOp::kNegative) return -a;
  else if constexpr (Op == EwOp::kSqrt) return std::sqrt(a);
  else if constexpr (Op == EwOp::kErf) return std::erf(a);
  else if constexpr (Op == EwOp::kGelu)
    return 0.5f * a * (1.0f + std::erf(a * 0.70710678118654752f));
}

template <EwOp Op>
using EwOpTag = std::integral_constant<EwOp, Op>;

/// Calls f(EwOpTag<op>{}) for a binary op (fatal for any other op): the op
/// is chosen once per call, and f's loop is instantiated per op.
template <typename F>
void VisitBinaryEwOp(EwOp op, F&& f) {
  switch (op) {
    case EwOp::kAdd: return f(EwOpTag<EwOp::kAdd>{});
    case EwOp::kSubtract: return f(EwOpTag<EwOp::kSubtract>{});
    case EwOp::kMultiply: return f(EwOpTag<EwOp::kMultiply>{});
    case EwOp::kDivide: return f(EwOpTag<EwOp::kDivide>{});
    case EwOp::kMaximum: return f(EwOpTag<EwOp::kMaximum>{});
    case EwOp::kMinimum: return f(EwOpTag<EwOp::kMinimum>{});
    default: NIMBLE_FATAL() << "not a binary elementwise op";
  }
}

/// The unary counterpart of VisitBinaryEwOp.
template <typename F>
void VisitUnaryEwOp(EwOp op, F&& f) {
  switch (op) {
    case EwOp::kSigmoid: return f(EwOpTag<EwOp::kSigmoid>{});
    case EwOp::kTanh: return f(EwOpTag<EwOp::kTanh>{});
    case EwOp::kRelu: return f(EwOpTag<EwOp::kRelu>{});
    case EwOp::kExp: return f(EwOpTag<EwOp::kExp>{});
    case EwOp::kNegative: return f(EwOpTag<EwOp::kNegative>{});
    case EwOp::kSqrt: return f(EwOpTag<EwOp::kSqrt>{});
    case EwOp::kErf: return f(EwOpTag<EwOp::kErf>{});
    case EwOp::kGelu: return f(EwOpTag<EwOp::kGelu>{});
    default: NIMBLE_FATAL() << "not a unary elementwise op";
  }
}

/// The element loop every elementwise path shares (standalone unary and
/// binary kernels, broadcasts, fused chains):
///   out[i] = EwScalar<Op, T>(a[i * kStrideA], b[i * kStrideB]),  0 <= i < n
/// Each stride is 1 (contiguous) or 0 (one broadcast element), known at
/// compile time like the op, so the body is branch-free and vectorizes.
/// Each element gets exactly the scalar operations EwScalar spells out (no
/// reassociation), so results do not depend on how the loop is split or
/// vectorized. `out` may alias `a` or `b` element for element (in-place
/// chains). Unary ops run as EwLoop<Op, 1, 0>(out, a, a, n).
template <EwOp Op, int kStrideA, int kStrideB, typename T, typename TIn,
          typename TOut>
NIMBLE_EW_LOOP_OPTS inline void EwLoop(TOut* out, const TIn* a, const TIn* b,
                                       int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<TOut>(
        EwScalar<Op, T>(a[i * kStrideA], b[i * kStrideB]));
  }
}

/// Maps op names ("add", "sigmoid", ...) to EwOp codes; returns false for
/// non-elementwise names.
bool EwOpFromName(const std::string& name, EwOp* out, bool* is_binary);

/// Generic strided broadcast binary loop over float32 tensors.
void BroadcastBinaryF32(EwOp op, const runtime::NDArray& a,
                        const runtime::NDArray& b, const runtime::NDArray& out);

}  // namespace kernels
}  // namespace nimble
