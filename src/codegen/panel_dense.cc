// Panel dense kernels for constant weights (declared in
// dense_kernels.h).
//
// Layout: the weight is packed once into panels [ceil(N/16), K, 16], so the
// 16 output columns of a panel sit in the lanes of one vector and each
// depth step k is one contiguous 64-byte row of the panel. The kernel walks
// panels outermost (a K x 16 panel stays in L1 while every row block of x
// streams past it), rows in kTileRows-row blocks with a compile-time tail,
// and within a block a few rows at a time so that every (row, chain)
// accumulator stays in a register.
//
// Arithmetic: lane j of a panel computes output column 16p + j in exactly
// MicroRow1F32's order — four chains over k mod 4, (a0+a1)+(a2+a3), then
// the scalar tail — or, for the `symbolic` kernels, DenseSymbolicChecked's
// single chain. Vector multiply and add are per-lane IEEE operations, so
// each lane's bits equal the scalar kernel's as long as no multiply and add
// are fused. The AVX-512F target implies FMA instructions and GCC's default
// -ffp-contract=fast would use them, so every function here carries the
// fp-contract=off pin below; it lives in the source because builds with
// their own flags compile this file too.
//
// One template body serves every ISA: the lane type V is a 16-lane vector
// for AVX-512F, an 8-lane vector (two halves per panel) for AVX2, and for
// the portable path a 4-lane generic vector that GCC and Clang lower to
// whatever the target has (SSE2, NEON, or scalar code), or plain float
// (sixteen scalar lanes) under other compilers.
#include <algorithm>
#include <cstring>

#include "src/codegen/dense_kernels.h"

#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#define NIMBLE_NO_FP_CONTRACT
#elif defined(__GNUC__)
#define NIMBLE_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define NIMBLE_NO_FP_CONTRACT
#endif

#if defined(__GNUC__) || defined(__clang__)
#define NIMBLE_KERNEL_INLINE inline __attribute__((always_inline))
#else
#define NIMBLE_KERNEL_INLINE inline
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NIMBLE_PANEL_X86 1
// The lane helpers below take and return 32/64-byte vectors; they are
// always inlined into a caller compiled for the matching ISA, so the
// out-of-line ABI the warning is about never exists.
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace nimble {
namespace codegen {

void PackDensePanels(const float* w, int64_t n_cols, int64_t k_depth,
                     float* panels) {
  int64_t num_panels = PanelCount(n_cols);
  for (int64_t p = 0; p < num_panels; ++p) {
    float* panel = panels + p * k_depth * kPanelCols;
    for (int64_t j = 0; j < kPanelCols; ++j) {
      int64_t col = p * kPanelCols + j;
      if (col < n_cols) {
        const float* wrow = w + col * k_depth;
        for (int64_t k = 0; k < k_depth; ++k) panel[k * kPanelCols + j] = wrow[k];
      } else {
        for (int64_t k = 0; k < k_depth; ++k) panel[k * kPanelCols + j] = 0.0f;
      }
    }
  }
}

namespace {

template <typename V>
constexpr int64_t kLanes = static_cast<int64_t>(sizeof(V) / sizeof(float));

/// Rows per register pass: 4 chains x rows accumulators plus the four
/// weight vectors must fit the register file (32 zmm; 16 ymm or xmm).
template <typename V>
constexpr int kPassRows = sizeof(V) == 64 ? 4 : 2;

template <typename V>
NIMBLE_KERNEL_INLINE V LoadLanes(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

/// Stores the first `valid` lanes of v (all of them when valid >= lanes):
/// the last panel of a weight whose N is not a multiple of 16 carries
/// zero-padded lanes that must not reach the output.
template <typename V>
NIMBLE_KERNEL_INLINE void StoreLanes(float* dst, const V& v, int64_t valid) {
  if (valid >= kLanes<V>) {
    std::memcpy(dst, &v, sizeof(V));
  } else {
    std::memcpy(dst, &v, static_cast<size_t>(valid) * sizeof(float));
  }
}

/// kRows rows x kLanes<V> columns (starting at lane0 of the panel), each in
/// MicroRow1F32's order.
template <typename V, int kRows>
NIMBLE_NO_FP_CONTRACT NIMBLE_KERNEL_INLINE void CanonicalPass(
    const float* x, const float* panel, float* out, int64_t n, int64_t k,
    int64_t lane0, int64_t valid) {
  V acc[kRows][4];
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < 4; ++c) acc[r][c] = V{};
  }
  const int64_t k4 = (k / 4) * 4;
  const float* wp = panel + lane0;
  for (int64_t kk = 0; kk < k4; kk += 4, wp += 4 * kPanelCols) {
    V w0 = LoadLanes<V>(wp);
    V w1 = LoadLanes<V>(wp + kPanelCols);
    V w2 = LoadLanes<V>(wp + 2 * kPanelCols);
    V w3 = LoadLanes<V>(wp + 3 * kPanelCols);
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const float* xr = x + r * k + kk;
      acc[r][0] += w0 * xr[0];
      acc[r][1] += w1 * xr[1];
      acc[r][2] += w2 * xr[2];
      acc[r][3] += w3 * xr[3];
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    V fin = (acc[r][0] + acc[r][1]) + (acc[r][2] + acc[r][3]);
    for (int64_t kk = k4; kk < k; ++kk) {
      fin += LoadLanes<V>(panel + kk * kPanelCols + lane0) * x[r * k + kk];
    }
    StoreLanes<V>(out + r * n + lane0, fin, valid);
  }
}

/// kRows (<= kTileRows) rows x the `valid` live columns of one panel.
template <typename V, int kRows>
NIMBLE_NO_FP_CONTRACT NIMBLE_KERNEL_INLINE void CanonicalRows(
    const float* x, const float* panel, float* out, int64_t n, int64_t k,
    int64_t valid) {
  constexpr int kPass = kRows < kPassRows<V> ? kRows : kPassRows<V>;
  for (int64_t lane0 = 0; lane0 < valid; lane0 += kLanes<V>) {
    CanonicalPass<V, kPass>(x, panel, out, n, k, lane0, valid - lane0);
  }
  if constexpr (kRows > kPass) {
    CanonicalRows<V, kRows - kPass>(x + kPass * k, panel, out + kPass * n, n,
                                    k, valid);
  }
}

/// Residue-specialized panel kernel: M = kTileRows * q + R, R fixed at
/// compile time, so every row loop in the hot path is tile-exact.
template <typename V, int R>
NIMBLE_NO_FP_CONTRACT NIMBLE_KERNEL_INLINE void PanelResidue(
    const float* x, const float* panels, float* out, int64_t m, int64_t n,
    int64_t k, int64_t p_begin, int64_t p_end) {
  const int64_t q = m / kTileRows;
  for (int64_t p = p_begin; p < p_end; ++p) {
    const float* panel = panels + p * k * kPanelCols;
    float* outp = out + p * kPanelCols;
    const int64_t valid = std::min<int64_t>(kPanelCols, n - p * kPanelCols);
    for (int64_t t = 0; t < q; ++t) {
      CanonicalRows<V, kTileRows>(x + t * kTileRows * k, panel,
                                  outp + t * kTileRows * n, n, k, valid);
    }
    if constexpr (R > 0) {
      CanonicalRows<V, R>(x + q * kTileRows * k, panel,
                          outp + q * kTileRows * n, n, k, valid);
    }
  }
}

/// Generic panel kernel: every tile re-derives its row count at runtime and
/// each (row, column) is one accumulator chain — DenseSymbolicChecked's
/// order over the packed layout.
template <typename V>
NIMBLE_NO_FP_CONTRACT NIMBLE_KERNEL_INLINE void PanelSymbolic(
    const float* x, const float* panels, float* out, int64_t m, int64_t n,
    int64_t k, int64_t p_begin, int64_t p_end) {
  for (int64_t p = p_begin; p < p_end; ++p) {
    const float* panel = panels + p * k * kPanelCols;
    float* outp = out + p * kPanelCols;
    const int64_t valid = std::min<int64_t>(kPanelCols, n - p * kPanelCols);
    for (int64_t i0 = 0; i0 < m; i0 += kTileRows) {
      int64_t rows = std::min<int64_t>(kTileRows, m - i0);  // boundary check
      for (int64_t r = 0; r < rows; ++r) {
        const float* xr = x + (i0 + r) * k;
        for (int64_t lane0 = 0; lane0 < valid; lane0 += kLanes<V>) {
          V acc = V{};
          for (int64_t kk = 0; kk < k; ++kk) {
            acc += LoadLanes<V>(panel + kk * kPanelCols + lane0) * xr[kk];
          }
          StoreLanes<V>(outp + (i0 + r) * n + lane0, acc, valid - lane0);
        }
      }
    }
  }
}

// ---- per-ISA instantiations ------------------------------------------------

#define NIMBLE_PANEL_ARGS                                                 \
  const float *x, const float *panels, float *out, int64_t m, int64_t n, \
      int64_t k, int64_t p_begin, int64_t p_end
#define NIMBLE_PANEL_FWD x, panels, out, m, n, k, p_begin, p_end

#if defined(__GNUC__) || defined(__clang__)
typedef float v4sf __attribute__((vector_size(16)));
using PortableLanes = v4sf;
#else
using PortableLanes = float;
#endif

template <int R>
NIMBLE_NO_FP_CONTRACT void ResiduePortable(NIMBLE_PANEL_ARGS) {
  PanelResidue<PortableLanes, R>(NIMBLE_PANEL_FWD);
}
NIMBLE_NO_FP_CONTRACT void SymbolicPortable(NIMBLE_PANEL_ARGS) {
  PanelSymbolic<PortableLanes>(NIMBLE_PANEL_FWD);
}

#ifdef NIMBLE_PANEL_X86
typedef float v8sf __attribute__((vector_size(32)));
typedef float v16sf __attribute__((vector_size(64)));

// AVX2 without FMA: the target itself cannot fuse, the pin is belt and
// braces. AVX-512F implies FMA; here the pin is what keeps the bits.
template <int R>
__attribute__((target("avx2"))) NIMBLE_NO_FP_CONTRACT void ResidueAvx2(
    NIMBLE_PANEL_ARGS) {
  PanelResidue<v8sf, R>(NIMBLE_PANEL_FWD);
}
__attribute__((target("avx2"))) NIMBLE_NO_FP_CONTRACT void SymbolicAvx2(
    NIMBLE_PANEL_ARGS) {
  PanelSymbolic<v8sf>(NIMBLE_PANEL_FWD);
}

template <int R>
__attribute__((target("avx512f"))) NIMBLE_NO_FP_CONTRACT void ResidueAvx512(
    NIMBLE_PANEL_ARGS) {
  PanelResidue<v16sf, R>(NIMBLE_PANEL_FWD);
}
__attribute__((target("avx512f"))) NIMBLE_NO_FP_CONTRACT void SymbolicAvx512(
    NIMBLE_PANEL_ARGS) {
  PanelSymbolic<v16sf>(NIMBLE_PANEL_FWD);
}
#endif  // NIMBLE_PANEL_X86

#undef NIMBLE_PANEL_ARGS
#undef NIMBLE_PANEL_FWD

#define NIMBLE_RESIDUE_TABLE(Fn) \
  { Fn<0>, Fn<1>, Fn<2>, Fn<3>, Fn<4>, Fn<5>, Fn<6>, Fn<7> }

const PanelDenseKernels kPortableKernels = {
    "portable", NIMBLE_RESIDUE_TABLE(ResiduePortable), SymbolicPortable};
#ifdef NIMBLE_PANEL_X86
const PanelDenseKernels kAvx2Kernels = {
    "avx2", NIMBLE_RESIDUE_TABLE(ResidueAvx2), SymbolicAvx2};
const PanelDenseKernels kAvx512Kernels = {
    "avx512f", NIMBLE_RESIDUE_TABLE(ResidueAvx512), SymbolicAvx512};
#endif

#undef NIMBLE_RESIDUE_TABLE

}  // namespace

const PanelDenseKernels* PanelKernelsFor(PanelIsa isa) {
  switch (isa) {
    case PanelIsa::kPortable:
      return &kPortableKernels;
#ifdef NIMBLE_PANEL_X86
    case PanelIsa::kAvx2:
      return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : nullptr;
    case PanelIsa::kAvx512:
      return __builtin_cpu_supports("avx512f") ? &kAvx512Kernels : nullptr;
#endif
    default:
      return nullptr;
  }
}

const PanelDenseKernels& BestPanelKernels() {
  static const PanelDenseKernels* best = [] {
    for (PanelIsa isa : {PanelIsa::kAvx512, PanelIsa::kAvx2}) {
      if (const PanelDenseKernels* kernels = PanelKernelsFor(isa)) {
        return kernels;
      }
    }
    return &kPortableKernels;
  }();
  return *best;
}

}  // namespace codegen
}  // namespace nimble
