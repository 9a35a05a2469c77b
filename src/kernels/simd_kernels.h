// Internal declarations shared between dispatch.cpp and the ISA
// translation units. Intentionally intrinsic-free: this header is
// included from portable code, so it must never pull <immintrin.h> /
// <arm_neon.h> (tools/lint.py enforces that only
// *_kernels_{avx2,avx512,neon}.cpp may). The symbols below are only defined when the matching
// BLURNET_HAVE_*_KERNELS macro was set for the ISA translation unit.
#pragma once

#include <cstdint>

#include "src/kernels/dispatch.h"

namespace blurnet::kernels::detail {

// Shared 8x8 DCT-II constants. Built once at runtime with the exact libm
// calls and argument expression of signal::dct1d_into (a volatile function
// pointer defeats compile-time cos folding, which could otherwise diverge
// from the runtime libm the scalar path uses).
struct Dct8Table {
  double cosv[64];   ///< cosv[i * 8 + k] = cos(M_PI * (2i+1) * k / 16)
  double cosvT[64];  ///< transposed copy: cosvT[k * 8 + i] = cosv[i * 8 + k]
  double scale0;     ///< sqrt(1/8)
  double scale;      ///< sqrt(2/8)
};
const Dct8Table& dct8_table();

// ---- median sorting networks ------------------------------------------------
// One min/max compare-exchange network per window size, shared by every
// target so the scalar reference and the SIMD kernels run the same program.
// `L` is a lane policy: `L::V` is the value type (float, or one SIMD vector
// holding a pixel per lane), `L::load(p)` reads the value at p (one lane per
// consecutive pixel), and `L::sort2(a, b)` is the compare-exchange
//   lo = a < b ? a : b;   hi = a < b ? b : a;   a = lo;   b = hi;
// exactly, for every input: an ISA policy must keep this operand order so a
// NaN or a signed zero lands in the same slot as on the scalar target (see
// the median contract in dispatch.h). The unnamed namespace gives each
// translation unit its own copy, compiled with that unit's ISA flags.
namespace {

struct ScalarLanes {
  using V = float;
  static float load(const float* p) { return *p; }
  static void sort2(float& a, float& b) {
    const float lo = a < b ? a : b;
    b = a < b ? b : a;
    a = lo;
  }
};

/// 3x3 window at s (rows `stride` floats apart): Paeth's 19-exchange
/// median-of-9 network; p4 ends up the 5th order statistic.
template <typename L>
inline typename L::V median3_at(const float* s, std::int64_t stride) {
  const float* r0 = s;
  const float* r1 = s + stride;
  const float* r2 = s + 2 * stride;
  auto p0 = L::load(r0), p1 = L::load(r0 + 1), p2 = L::load(r0 + 2);
  auto p3 = L::load(r1), p4 = L::load(r1 + 1), p5 = L::load(r1 + 2);
  auto p6 = L::load(r2), p7 = L::load(r2 + 1), p8 = L::load(r2 + 2);
  L::sort2(p1, p2); L::sort2(p4, p5); L::sort2(p7, p8);
  L::sort2(p0, p1); L::sort2(p3, p4); L::sort2(p6, p7);
  L::sort2(p1, p2); L::sort2(p4, p5); L::sort2(p7, p8);
  L::sort2(p0, p3); L::sort2(p5, p8); L::sort2(p4, p7);
  L::sort2(p3, p6); L::sort2(p1, p4); L::sort2(p2, p5);
  L::sort2(p4, p7); L::sort2(p4, p2); L::sort2(p6, p4);
  L::sort2(p4, p2);
  return p4;
}

/// 5x5 window at s: the 99-exchange median-of-25 selection network
/// (Smith's FPGA median network, as in Devillard's opt_med25); p12 ends up
/// the 13th order statistic. Checked exhaustively over all 2^25 0/1 inputs,
/// which by the 0-1 principle covers every totally ordered input.
template <typename L>
inline typename L::V median5_at(const float* s, std::int64_t stride) {
  const float* r0 = s;
  const float* r1 = s + stride;
  const float* r2 = s + 2 * stride;
  const float* r3 = s + 3 * stride;
  const float* r4 = s + 4 * stride;
  auto p0 = L::load(r0), p1 = L::load(r0 + 1), p2 = L::load(r0 + 2),
       p3 = L::load(r0 + 3), p4 = L::load(r0 + 4);
  auto p5 = L::load(r1), p6 = L::load(r1 + 1), p7 = L::load(r1 + 2),
       p8 = L::load(r1 + 3), p9 = L::load(r1 + 4);
  auto p10 = L::load(r2), p11 = L::load(r2 + 1), p12 = L::load(r2 + 2),
       p13 = L::load(r2 + 3), p14 = L::load(r2 + 4);
  auto p15 = L::load(r3), p16 = L::load(r3 + 1), p17 = L::load(r3 + 2),
       p18 = L::load(r3 + 3), p19 = L::load(r3 + 4);
  auto p20 = L::load(r4), p21 = L::load(r4 + 1), p22 = L::load(r4 + 2),
       p23 = L::load(r4 + 3), p24 = L::load(r4 + 4);
  L::sort2(p0, p1); L::sort2(p3, p4); L::sort2(p2, p4); L::sort2(p2, p3);
  L::sort2(p6, p7); L::sort2(p5, p7); L::sort2(p5, p6); L::sort2(p9, p10);
  L::sort2(p8, p10); L::sort2(p8, p9); L::sort2(p12, p13); L::sort2(p11, p13);
  L::sort2(p11, p12); L::sort2(p15, p16); L::sort2(p14, p16); L::sort2(p14, p15);
  L::sort2(p18, p19); L::sort2(p17, p19); L::sort2(p17, p18); L::sort2(p21, p22);
  L::sort2(p20, p22); L::sort2(p20, p21); L::sort2(p23, p24); L::sort2(p2, p5);
  L::sort2(p3, p6); L::sort2(p0, p6); L::sort2(p0, p3); L::sort2(p4, p7);
  L::sort2(p1, p7); L::sort2(p1, p4); L::sort2(p11, p14); L::sort2(p8, p14);
  L::sort2(p8, p11); L::sort2(p12, p15); L::sort2(p9, p15); L::sort2(p9, p12);
  L::sort2(p13, p16); L::sort2(p10, p16); L::sort2(p10, p13); L::sort2(p20, p23);
  L::sort2(p17, p23); L::sort2(p17, p20); L::sort2(p21, p24); L::sort2(p18, p24);
  L::sort2(p18, p21); L::sort2(p19, p22); L::sort2(p8, p17); L::sort2(p9, p18);
  L::sort2(p0, p18); L::sort2(p0, p9); L::sort2(p10, p19); L::sort2(p1, p19);
  L::sort2(p1, p10); L::sort2(p11, p20); L::sort2(p2, p20); L::sort2(p2, p11);
  L::sort2(p12, p21); L::sort2(p3, p21); L::sort2(p3, p12); L::sort2(p13, p22);
  L::sort2(p4, p22); L::sort2(p4, p13); L::sort2(p14, p23); L::sort2(p5, p23);
  L::sort2(p5, p14); L::sort2(p15, p24); L::sort2(p6, p24); L::sort2(p6, p15);
  L::sort2(p7, p16); L::sort2(p7, p19); L::sort2(p13, p21); L::sort2(p15, p23);
  L::sort2(p7, p13); L::sort2(p7, p15); L::sort2(p1, p9); L::sort2(p3, p11);
  L::sort2(p5, p17); L::sort2(p11, p17); L::sort2(p9, p17); L::sort2(p4, p10);
  L::sort2(p6, p12); L::sort2(p7, p14); L::sort2(p4, p6); L::sort2(p4, p7);
  L::sort2(p12, p14); L::sort2(p10, p14); L::sort2(p6, p7); L::sort2(p10, p12);
  L::sort2(p6, p10); L::sort2(p6, p17); L::sort2(p12, p17); L::sort2(p7, p17);
  L::sort2(p7, p10); L::sort2(p12, p18); L::sort2(p7, p12); L::sort2(p10, p18);
  L::sort2(p12, p20); L::sort2(p10, p20); L::sort2(p10, p12);
  return p12;
}

}  // namespace

// Scalar median rows (dispatch.cpp): the scalar target's kernels and the
// per-pixel tails of the SIMD ones.
void median3_row_scalar(const float* src, std::int64_t stride, float* dst,
                        std::int64_t count);
void median5_row_scalar(const float* src, std::int64_t stride, float* dst,
                        std::int64_t count);

// Scalar tile store (dispatch.cpp): the scalar target's writeback and the
// partial-tile path of the neon one.
void gemm_store_scalar(const float* acc, std::int64_t rows, std::int64_t cols,
                       float* c, std::int64_t ldc, bool first, const float* bias,
                       bool relu);

#if defined(BLURNET_HAVE_AVX2_KERNELS)
void gemm_microtile_avx2(std::int64_t kc, const float* ap, const float* b,
                         std::int64_t ldb, float* acc);
void gemm_row_avx2(std::int64_t kc, const float* a, const float* b,
                   std::int64_t ldb, std::int64_t n, float* acc);
void gemm_store_avx2(const float* acc, std::int64_t rows, std::int64_t cols,
                     float* c, std::int64_t ldc, bool first, const float* bias,
                     bool relu);
void tap_row_avx2(const float* src, std::int64_t stride, const float* ker,
                  int kh, int kw, float* dst, std::int64_t count);
void warp_row_avx2(const float* src, std::int64_t h, std::int64_t w,
                   const WarpCoeffs& t, std::int64_t y, float* dst);
void median3_row_avx2(const float* src, std::int64_t stride, float* dst,
                      std::int64_t count);
void median5_row_avx2(const float* src, std::int64_t stride, float* dst,
                      std::int64_t count);
void dct8x8_forward_avx2(const double* in, double* out);
void dct8x8_inverse_avx2(const double* in, double* out);
#endif

#if defined(BLURNET_HAVE_AVX512_KERNELS)
void gemm_microtile_avx512(std::int64_t kc, const float* ap, const float* b,
                           std::int64_t ldb, float* acc);
#endif

#if defined(BLURNET_HAVE_NEON_KERNELS)
void gemm_microtile_neon(std::int64_t kc, const float* ap, const float* b,
                         std::int64_t ldb, float* acc);
void gemm_store_neon(const float* acc, std::int64_t rows, std::int64_t cols,
                     float* c, std::int64_t ldc, bool first, const float* bias,
                     bool relu);
void tap_row_neon(const float* src, std::int64_t stride, const float* ker,
                  int kh, int kw, float* dst, std::int64_t count);
void median3_row_neon(const float* src, std::int64_t stride, float* dst,
                      std::int64_t count);
void median5_row_neon(const float* src, std::int64_t stride, float* dst,
                      std::int64_t count);
#endif

}  // namespace blurnet::kernels::detail
