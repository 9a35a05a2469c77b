// Per-ISA kernel tables behind util::active_kernel_target().
//
// Each hot loop has one portable entry point here that returns a function
// pointer (or a small descriptor) for a given target. Scalar
// implementations live in dispatch.cpp and are the reference numerics;
// the ISA translation units (simd_kernels_avx2.cpp / simd_kernels_avx512.cpp
// / simd_kernels_neon.cpp, the only files allowed to touch raw intrinsics —
// enforced by tools/lint.py) register themselves behind
// BLURNET_HAVE_*_KERNELS.
//
// Targets and their GEMM tiles:
//   scalar  4x8, two-rounding mul+add
//   avx2    8x8, FMA, one 8-lane vector per tile row
//   avx512  16x8, FMA, one 16-lane vector per tile column
//   neon    4x8, FMA
// avx512 owns only its GEMM tile; every other accessor below (gemm_row and
// gemm_store included) hands it the avx2 kernel.
//
// Numerics, per kernel:
//   * gemm_microkernel — float32 ascending-k fold per output element. The
//     scalar entry is two-rounding mul+add; AVX2/AVX-512/NEON use hardware
//     FMA (one rounding per term). Within one target results are bitwise
//     deterministic; across targets GEMM low bits may differ. The fused
//     targets are bitwise-modelled by linalg::sgemm_reference_fused, and
//     the avx512 16x8 tile runs each output element's FMA chain exactly as
//     the avx2 8x8 tile does, so the two targets are bitwise equal.
//   * gemm_row folds each lane exactly like its target's microtile.
//   * gemm_store (the tile writeback with optional bias and ReLU), tap rows,
//     warp rows and dct8x8 reproduce the scalar operation order exactly and
//     are bitwise equal to scalar on every target.
//   * median3/median5 rows run one min/max compare-exchange network on
//     every target (see "median rows" below) and are bitwise equal to
//     scalar for every input, NaN and signed zeros included.
//
// gemm_row may return nullptr for a target with no specialized
// implementation: callers must fall back to their generic path. Every other
// accessor is never null (a target without a specialization gets the scalar
// kernel).
#pragma once

#include <cstdint>

#include "src/util/cpu_caps.h"

namespace blurnet::kernels {

// ---- GEMM microtile ---------------------------------------------------------

/// Microtile column width; must match linalg::kNr (the B pack width).
inline constexpr std::int64_t kGemmNr = 8;

/// Upper bound on GemmMicrokernel::mr across all targets (the avx512 tile);
/// drivers size their writeback accumulator as float[kGemmMaxMr * kGemmNr].
inline constexpr std::int64_t kGemmMaxMr = 16;

/// Register-blocked microtile: acc[mr][kGemmNr] (row-major, overwritten —
/// the kernel zero-initializes) = sum over kk<kc of
/// ap[kk*mr + i] * b[kk*ldb + j].
/// `ap` is a packed A panel (mr floats per k step, zero-padded rows);
/// `b` is either a packed kGemmNr-wide panel (ldb == kGemmNr) or a
/// direct row-major slice of B (ldb == original ldb, full tiles only).
struct GemmMicrokernel {
  std::int64_t mr;  ///< microtile rows; the driver packs A panels this tall
  bool fused;       ///< true: hardware FMA accumulation (avx2/avx512/neon)
  void (*fn)(std::int64_t kc, const float* ap, const float* b,
             std::int64_t ldb, float* acc);
};

/// Never null; scalar has mr == linalg::kMr (4), fused targets mr == 8 (avx2),
/// 16 (avx512) or 4 (neon).
const GemmMicrokernel& gemm_microkernel(util::KernelTarget target);

/// One row of A against a row-major slice of B: acc[j] (overwritten) =
/// sum over kk<kc, ascending, of a[kk] * b[kk*ldb + j], for j in [0, n).
/// Each acc[j] folds exactly as the target's microtile lane does, so a GEMM
/// with fewer rows than mr can skip the zero-padded microtile rows and stay
/// bitwise equal to it.
using GemmRowFn = void (*)(std::int64_t kc, const float* a, const float* b,
                           std::int64_t ldb, std::int64_t n, float* acc);

/// nullptr for targets without a specialization (the driver keeps the
/// microtile path). avx512 gets the avx2 row, whose lanes fold like the
/// avx512 tile's, so the driver uses it for every m < 16.
GemmRowFn gemm_row(util::KernelTarget target);

/// Writes one microtile accumulator into C: for ii < rows, jj < cols
/// (cols <= kGemmNr),
///   v = first ? acc[ii*kGemmNr + jj] : c[ii*ldc + jj] + acc[ii*kGemmNr + jj]
///   if (bias) v = v + bias[ii]          (after the last k-block)
///   if (relu) v = v > 0 ? v : +0.0f     (tensor::relu's select)
///   c[ii*ldc + jj] = v
/// so a GEMM stores its first k-block, adds later blocks in ascending order,
/// and a fused conv epilogue adds the bias and rectifies in the same pass.
/// Every target runs these float ops in this order (NaN -> +0 and -0 -> +0
/// under relu), so results are bitwise equal to scalar, up to the payload of
/// a NaN result (which of two NaN operands an add propagates is the
/// compiler's choice of operand order).
using GemmStoreFn = void (*)(const float* acc, std::int64_t rows,
                             std::int64_t cols, float* c, std::int64_t ldc,
                             bool first, const float* bias, bool relu);

/// Never null.
GemmStoreFn gemm_store(util::KernelTarget target);

// ---- convolution tap rows ---------------------------------------------------

/// dst[i] = (float) sum over (fy<kh, fx<kw), ascending, of
///          (double)ker[fy*kw + fx] * src[fy*stride + i + fx]
/// for i in [0, count). Exactly the interior loop of signal::filter_plane
/// and the padded depthwise forward: double accumulator, taps in
/// ascending (fy, fx) order, one final round to float.
using TapRowFn = void (*)(const float* src, std::int64_t stride,
                          const float* ker, int kh, int kw, float* dst,
                          std::int64_t count);

/// Never null.
TapRowFn tap_row(util::KernelTarget target);

// ---- affine warp rows -------------------------------------------------------

/// Row-major 2x3 inverse-map coefficients: source coords of output pixel
/// (xx, y) are in_x = m00*xx + m01*y + tx, in_y = m10*xx + m11*y + ty,
/// evaluated in double in exactly that association order.
struct WarpCoeffs {
  double m00, m01, tx;
  double m10, m11, ty;
};

/// Bilinear gather+lerp for one output row y of a [h, w] plane:
/// dst[xx] = (float) sum of wy*wx*src[sy*w + sx] over the 4 taps in
/// (dy, dx) ascending order, out-of-bounds taps skipped (contribute +0).
using WarpRowFn = void (*)(const float* src, std::int64_t h, std::int64_t w,
                           const WarpCoeffs& t, std::int64_t y, float* dst);

/// Never null.
WarpRowFn warp_row(util::KernelTarget target);

// ---- median rows ------------------------------------------------------------

/// dst[i] = median of the k*k floats src[fy*stride + i + fx] (fy, fx < k)
/// for i in [0, count): one output row of a k×k median over a
/// replicate-padded plane whose rows are `stride` floats apart (each row
/// at least count+k-1 floats long).
///
/// Contract: every target runs the same compare-exchange network (19
/// exchanges for k = 3, 99 for k = 5), built from
///   lo = a < b ? a : b,   hi = a < b ? b : a,
/// so results are bitwise equal across targets for every input. On NaN-free
/// windows the result is the exact middle order statistic, equal (==) to
/// std::nth_element's; when ±0 tie, the sign of a zero result may differ
/// from nth_element's. A NaN is unordered, so a window holding one yields
/// some deterministic element of the window, not a NaN-aware median.
using MedianRowFn = void (*)(const float* src, std::int64_t stride,
                             float* dst, std::int64_t count);

/// 3×3 rows (8 px per step on avx2, 4 on neon). Never null.
MedianRowFn median3_row(util::KernelTarget target);

/// 5×5 rows (8 px per step on avx2, 4 on neon). Never null.
MedianRowFn median5_row(util::KernelTarget target);

// ---- 8x8 DCT-II -------------------------------------------------------------

/// Forward/inverse 8x8 type-II DCT on doubles, rows then columns, with
/// the exact fold order and cosine values of signal::dct2d/idct2d (the
/// cosine table is built once at runtime with the same libm calls, so
/// results are bitwise equal to the loop-computed scalar path).
using Dct8x8Fn = void (*)(const double* in, double* out);

/// Never null: targets without a specialization (scalar, neon) get the
/// scalar pair.
Dct8x8Fn dct8x8(util::KernelTarget target, bool inverse);

}  // namespace blurnet::kernels
