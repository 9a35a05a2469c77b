// AVX-512 kernels. This translation unit is compiled with -mavx512f
// -mavx512vl -mavx2 -mfma (CMake sets the flags and
// BLURNET_HAVE_AVX512_KERNELS per-file on x86-64) and is one of the three
// files allowed to use raw intrinsics (tools/lint.py `simd-confinement`).
// Dispatch never routes here unless the host probe reported AVX-512 F+VL
// with the ZMM state enabled by the OS.
//
// The avx512 target owns a single kernel, the 16x8 GEMM microtile; every
// other kernel it dispatches is the avx2 one (src/kernels/dispatch.cpp).
//
// Numerics: the tile keeps one accumulator lane per output element and
// folds it with one _mm512_fmadd_ps per k step, ascending, from zero — the
// same correctly rounded a*b + c chain as the avx2 8x8 tile's lane for that
// element (the multiplicands only trade places, which FMA does not see). So
// the avx512 target is bitwise equal to avx2, and both are bitwise-modelled
// by linalg::sgemm_reference_fused.
#include "src/kernels/simd_kernels.h"

#if defined(BLURNET_HAVE_AVX512_KERNELS)

// GCC 12's avx512fintrin.h builds the unmasked unpack/shuffle intrinsics on
// a self-initialized `_mm512_undefined_ps()` and then warns about it once
// they are inlined here (GCC bug 105593, fixed in GCC 13).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#include <immintrin.h>

#include <cstdint>

namespace blurnet::kernels::detail {

// ---- GEMM 16x8 microtile ----------------------------------------------------

void gemm_microtile_avx512(std::int64_t kc, const float* ap, const float* b,
                           std::int64_t ldb, float* acc) {
  // Vectorized over rows: c<j> holds column j of the tile, lane i = row i.
  // Each k step loads the 16-row A column once and broadcasts the 8 B values
  // of that step (the broadcasts fold into the FMAs' memory operands).
  __m512 c0 = _mm512_setzero_ps();
  __m512 c1 = _mm512_setzero_ps();
  __m512 c2 = _mm512_setzero_ps();
  __m512 c3 = _mm512_setzero_ps();
  __m512 c4 = _mm512_setzero_ps();
  __m512 c5 = _mm512_setzero_ps();
  __m512 c6 = _mm512_setzero_ps();
  __m512 c7 = _mm512_setzero_ps();
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m512 av = _mm512_loadu_ps(ap + kk * 16);
    const float* brow = b + kk * ldb;
    c0 = _mm512_fmadd_ps(av, _mm512_set1_ps(brow[0]), c0);
    c1 = _mm512_fmadd_ps(av, _mm512_set1_ps(brow[1]), c1);
    c2 = _mm512_fmadd_ps(av, _mm512_set1_ps(brow[2]), c2);
    c3 = _mm512_fmadd_ps(av, _mm512_set1_ps(brow[3]), c3);
    c4 = _mm512_fmadd_ps(av, _mm512_set1_ps(brow[4]), c4);
    c5 = _mm512_fmadd_ps(av, _mm512_set1_ps(brow[5]), c5);
    c6 = _mm512_fmadd_ps(av, _mm512_set1_ps(brow[6]), c6);
    c7 = _mm512_fmadd_ps(av, _mm512_set1_ps(brow[7]), c7);
  }

  // Transpose the 8 column vectors into the row-major acc[16][8] the tile
  // contract asks for: 8 stores of two tile rows each. Within each 128-bit
  // quarter q (rows 4q..4q+3), the two unpack levels gather row 4q+r's
  // columns 0-3 into u<r> and columns 4-7 into u<r+4>.
  const __m512 t0 = _mm512_unpacklo_ps(c0, c1);
  const __m512 t1 = _mm512_unpackhi_ps(c0, c1);
  const __m512 t2 = _mm512_unpacklo_ps(c2, c3);
  const __m512 t3 = _mm512_unpackhi_ps(c2, c3);
  const __m512 t4 = _mm512_unpacklo_ps(c4, c5);
  const __m512 t5 = _mm512_unpackhi_ps(c4, c5);
  const __m512 t6 = _mm512_unpacklo_ps(c6, c7);
  const __m512 t7 = _mm512_unpackhi_ps(c6, c7);
  auto lo64 = [](__m512 a, __m512 b) {
    return _mm512_castpd_ps(_mm512_unpacklo_pd(_mm512_castps_pd(a), _mm512_castps_pd(b)));
  };
  auto hi64 = [](__m512 a, __m512 b) {
    return _mm512_castpd_ps(_mm512_unpackhi_pd(_mm512_castps_pd(a), _mm512_castps_pd(b)));
  };
  const __m512 u0 = lo64(t0, t2);  // row 4q+0, cols 0-3
  const __m512 u1 = hi64(t0, t2);  // row 4q+1, cols 0-3
  const __m512 u2 = lo64(t1, t3);  // row 4q+2, cols 0-3
  const __m512 u3 = hi64(t1, t3);  // row 4q+3, cols 0-3
  const __m512 u4 = lo64(t4, t6);  // row 4q+0, cols 4-7
  const __m512 u5 = hi64(t4, t6);  // row 4q+1, cols 4-7
  const __m512 u6 = lo64(t5, t7);  // row 4q+2, cols 4-7
  const __m512 u7 = hi64(t5, t7);  // row 4q+3, cols 4-7

  // Rows 4q and 4q+1 are [u0.q, u4.q, u1.q, u5.q]; rows 4q+2 and 4q+3 are
  // [u2.q, u6.q, u3.q, u7.q]. Two 128-bit lane shuffles build each pair.
  auto store_pairs = [&](__m512 lo_a, __m512 hi_a, __m512 lo_b, __m512 hi_b,
                         std::int64_t first_row) {
    const __m512 x01 = _mm512_shuffle_f32x4(lo_a, hi_a, _MM_SHUFFLE(1, 0, 1, 0));
    const __m512 y01 = _mm512_shuffle_f32x4(lo_b, hi_b, _MM_SHUFFLE(1, 0, 1, 0));
    const __m512 x23 = _mm512_shuffle_f32x4(lo_a, hi_a, _MM_SHUFFLE(3, 2, 3, 2));
    const __m512 y23 = _mm512_shuffle_f32x4(lo_b, hi_b, _MM_SHUFFLE(3, 2, 3, 2));
    float* out = acc + first_row * kGemmNr;
    _mm512_storeu_ps(out + 0 * 4 * kGemmNr,
                     _mm512_shuffle_f32x4(x01, y01, _MM_SHUFFLE(2, 0, 2, 0)));
    _mm512_storeu_ps(out + 1 * 4 * kGemmNr,
                     _mm512_shuffle_f32x4(x01, y01, _MM_SHUFFLE(3, 1, 3, 1)));
    _mm512_storeu_ps(out + 2 * 4 * kGemmNr,
                     _mm512_shuffle_f32x4(x23, y23, _MM_SHUFFLE(2, 0, 2, 0)));
    _mm512_storeu_ps(out + 3 * 4 * kGemmNr,
                     _mm512_shuffle_f32x4(x23, y23, _MM_SHUFFLE(3, 1, 3, 1)));
  };
  store_pairs(u0, u4, u1, u5, 0);  // rows 0-1, 4-5, 8-9, 12-13
  store_pairs(u2, u6, u3, u7, 2);  // rows 2-3, 6-7, 10-11, 14-15
}

}  // namespace blurnet::kernels::detail

#endif  // BLURNET_HAVE_AVX512_KERNELS
