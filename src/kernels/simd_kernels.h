// Internal declarations shared between dispatch.cpp and the ISA
// translation units. Intentionally intrinsic-free: this header is
// included from portable code, so it must never pull <immintrin.h> /
// <arm_neon.h> (tools/lint.py enforces that only *_kernels_{avx2,neon}.cpp
// may). The symbols below are only defined when the matching
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

#if defined(BLURNET_HAVE_AVX2_KERNELS)
void gemm_microtile_avx2(std::int64_t kc, const float* ap, const float* b,
                         std::int64_t ldb, float* acc);
void gemm_row_avx2(std::int64_t kc, const float* a, const float* b,
                   std::int64_t ldb, std::int64_t n, float* acc);
void tap_row_avx2(const float* src, std::int64_t stride, const float* ker,
                  int kh, int kw, float* dst, std::int64_t count);
void warp_row_avx2(const float* src, std::int64_t h, std::int64_t w,
                   const WarpCoeffs& t, std::int64_t y, float* dst);
void median3_row_avx2(const float* r0, const float* r1, const float* r2,
                      float* dst, std::int64_t count);
void dct8x8_forward_avx2(const double* in, double* out);
void dct8x8_inverse_avx2(const double* in, double* out);
#endif

#if defined(BLURNET_HAVE_NEON_KERNELS)
void gemm_microtile_neon(std::int64_t kc, const float* ap, const float* b,
                         std::int64_t ldb, float* acc);
void tap_row_neon(const float* src, std::int64_t stride, const float* ker,
                  int kh, int kw, float* dst, std::int64_t count);
void median3_row_neon(const float* r0, const float* r1, const float* r2,
                      float* dst, std::int64_t count);
#endif

}  // namespace blurnet::kernels::detail
