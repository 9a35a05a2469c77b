// AVX2+FMA kernels. This translation unit is compiled with -mavx2 -mfma
// (CMake sets the flags and BLURNET_HAVE_AVX2_KERNELS per-file on x86-64)
// and is one of the three files allowed to use raw intrinsics (tools/lint.py
// `simd-confinement`). Dispatch never routes here unless the host probe
// reported AVX2+FMA, so no function below needs its own runtime check.
//
// Numerics:
//   * gemm_microtile_avx2 and gemm_row_avx2 accumulate with
//     _mm256_fmadd_ps — one rounding per term. Bitwise-deterministic,
//     bitwise-modelled by linalg::sgemm_reference_fused, but NOT bit-equal
//     to the scalar two-rounding microtile (the documented per-target GEMM
//     contract).
//   * gemm_store_avx2 runs the scalar tile store's float adds and ReLU
//     select in the scalar order and is bit-equal to scalar;
//   * every other kernel reproduces the scalar double-precision op order
//     exactly (no FMA, no reassociation) and is bit-equal to scalar; the
//     scalar remainder loops below are verbatim copies of the reference
//     loops (the median rows call the scalar rows for their tails) so
//     vector body + tail stay one numeric family. The global
//     -ffp-contract=off keeps the compiler from fusing those tails even
//     though this TU enables -mfma.
#include "src/kernels/simd_kernels.h"

#if defined(BLURNET_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace blurnet::kernels::detail {

// ---- GEMM 8x8 microtile -----------------------------------------------------

void gemm_microtile_avx2(std::int64_t kc, const float* ap, const float* b,
                         std::int64_t ldb, float* acc) {
  __m256 c0 = _mm256_setzero_ps();
  __m256 c1 = _mm256_setzero_ps();
  __m256 c2 = _mm256_setzero_ps();
  __m256 c3 = _mm256_setzero_ps();
  __m256 c4 = _mm256_setzero_ps();
  __m256 c5 = _mm256_setzero_ps();
  __m256 c6 = _mm256_setzero_ps();
  __m256 c7 = _mm256_setzero_ps();
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m256 bv = _mm256_loadu_ps(b + kk * ldb);
    const float* arow = ap + kk * 8;
    c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 0), bv, c0);
    c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 1), bv, c1);
    c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 2), bv, c2);
    c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 3), bv, c3);
    c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 4), bv, c4);
    c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 5), bv, c5);
    c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 6), bv, c6);
    c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 7), bv, c7);
  }
  _mm256_storeu_ps(acc + 0, c0);
  _mm256_storeu_ps(acc + 8, c1);
  _mm256_storeu_ps(acc + 16, c2);
  _mm256_storeu_ps(acc + 24, c3);
  _mm256_storeu_ps(acc + 32, c4);
  _mm256_storeu_ps(acc + 40, c5);
  _mm256_storeu_ps(acc + 48, c6);
  _mm256_storeu_ps(acc + 56, c7);
}

// ---- GEMM row (m < 8) ---------------------------------------------------------

namespace {

// Lane mask selecting the first `n` (0..8) floats of a vector.
inline __m256i first_lanes(std::int64_t n) {
  const __m256i index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)), index);
}

}  // namespace

void gemm_row_avx2(std::int64_t kc, const float* a, const float* b,
                   std::int64_t ldb, std::int64_t n, float* acc) {
  // Four independent 8-column chains per pass, each lane the same
  // _mm256_fmadd_ps fold from zero as the 8x8 microtile's lane, so results
  // are bitwise equal to the microtile path. The last pass masks its loads
  // and stores: masked-off lanes never touch memory.
  std::int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256 c0 = _mm256_setzero_ps();
    __m256 c1 = _mm256_setzero_ps();
    __m256 c2 = _mm256_setzero_ps();
    __m256 c3 = _mm256_setzero_ps();
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const __m256 av = _mm256_broadcast_ss(a + kk);
      const float* brow = b + kk * ldb + j;
      c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), c0);
      c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), c1);
      c2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 16), c2);
      c3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 24), c3);
    }
    _mm256_storeu_ps(acc + j, c0);
    _mm256_storeu_ps(acc + j + 8, c1);
    _mm256_storeu_ps(acc + j + 16, c2);
    _mm256_storeu_ps(acc + j + 24, c3);
  }
  if (j == n) return;
  const std::int64_t rest = n - j;
  const __m256i m0 = first_lanes(rest);
  const __m256i m1 = first_lanes(rest - 8);
  const __m256i m2 = first_lanes(rest - 16);
  const __m256i m3 = first_lanes(rest - 24);
  __m256 c0 = _mm256_setzero_ps();
  __m256 c1 = _mm256_setzero_ps();
  __m256 c2 = _mm256_setzero_ps();
  __m256 c3 = _mm256_setzero_ps();
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m256 av = _mm256_broadcast_ss(a + kk);
    const float* brow = b + kk * ldb + j;
    c0 = _mm256_fmadd_ps(av, _mm256_maskload_ps(brow, m0), c0);
    c1 = _mm256_fmadd_ps(av, _mm256_maskload_ps(brow + 8, m1), c1);
    c2 = _mm256_fmadd_ps(av, _mm256_maskload_ps(brow + 16, m2), c2);
    c3 = _mm256_fmadd_ps(av, _mm256_maskload_ps(brow + 24, m3), c3);
  }
  _mm256_maskstore_ps(acc + j, m0, c0);
  _mm256_maskstore_ps(acc + j + 8, m1, c1);
  _mm256_maskstore_ps(acc + j + 16, m2, c2);
  _mm256_maskstore_ps(acc + j + 24, m3, c3);
}

// ---- GEMM tile store ----------------------------------------------------------

void gemm_store_avx2(const float* acc, std::int64_t rows, std::int64_t cols,
                     float* c, std::int64_t ldc, bool first, const float* bias,
                     bool relu) {
  // One tile row per vector, the scalar store's ops in its order: the add
  // keeps c + acc operand order, and the ReLU is a GT_OQ compare mask, so a
  // NaN or -0 comes out +0 exactly as `v > 0 ? v : 0.0f` does. A partial
  // tile masks its C loads and stores: masked-off lanes never touch memory.
  const bool full = cols == kGemmNr;
  const __m256i mask = first_lanes(cols);
  const __m256 zero = _mm256_setzero_ps();
  for (std::int64_t ii = 0; ii < rows; ++ii) {
    float* crow = c + ii * ldc;
    __m256 v = _mm256_loadu_ps(acc + ii * kGemmNr);
    if (!first) {
      const __m256 cv = full ? _mm256_loadu_ps(crow) : _mm256_maskload_ps(crow, mask);
      v = _mm256_add_ps(cv, v);
    }
    if (bias != nullptr) v = _mm256_add_ps(v, _mm256_broadcast_ss(bias + ii));
    if (relu) v = _mm256_and_ps(v, _mm256_cmp_ps(v, zero, _CMP_GT_OQ));
    if (full) {
      _mm256_storeu_ps(crow, v);
    } else {
      _mm256_maskstore_ps(crow, mask, v);
    }
  }
}

// ---- convolution tap rows ---------------------------------------------------

void tap_row_avx2(const float* src, std::int64_t stride, const float* ker,
                  int kh, int kw, float* dst, std::int64_t count) {
  std::int64_t i = 0;
  // Sixteen output pixels per iteration in four independent 4-lane chains,
  // so the double adds overlap instead of waiting on one another. Every
  // lane is still its own double accumulator walking the taps in the scalar
  // (fy, fx) order.
  for (; i + 16 <= count; i += 16) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    for (int fy = 0; fy < kh; ++fy) {
      const float* row = src + fy * stride + i;
      for (int fx = 0; fx < kw; ++fx) {
        const __m256d tap =
            _mm256_set1_pd(static_cast<double>(ker[fy * kw + fx]));
        const float* p = row + fx;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(tap, _mm256_cvtps_pd(_mm_loadu_ps(p))));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(tap, _mm256_cvtps_pd(_mm_loadu_ps(p + 4))));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(tap, _mm256_cvtps_pd(_mm_loadu_ps(p + 8))));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(tap, _mm256_cvtps_pd(_mm_loadu_ps(p + 12))));
      }
    }
    _mm_storeu_ps(dst + i, _mm256_cvtpd_ps(acc0));
    _mm_storeu_ps(dst + i + 4, _mm256_cvtpd_ps(acc1));
    _mm_storeu_ps(dst + i + 8, _mm256_cvtpd_ps(acc2));
    _mm_storeu_ps(dst + i + 12, _mm256_cvtpd_ps(acc3));
  }
  for (; i + 4 <= count; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (int fy = 0; fy < kh; ++fy) {
      const float* row = src + fy * stride + i;
      for (int fx = 0; fx < kw; ++fx) {
        const __m256d tap =
            _mm256_set1_pd(static_cast<double>(ker[fy * kw + fx]));
        const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(row + fx));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(tap, v));
      }
    }
    _mm_storeu_ps(dst + i, _mm256_cvtpd_ps(acc));
  }
  for (; i < count; ++i) {
    double acc = 0.0;
    for (int fy = 0; fy < kh; ++fy) {
      const float* row = src + fy * stride + i;
      for (int fx = 0; fx < kw; ++fx) {
        acc += static_cast<double>(ker[fy * kw + fx]) * row[fx];
      }
    }
    dst[i] = static_cast<float>(acc);
  }
}

// ---- affine warp rows -------------------------------------------------------

void warp_row_avx2(const float* src, std::int64_t h, std::int64_t w,
                   const WarpCoeffs& t, std::int64_t y, float* dst) {
  // The gather index is int32: bail to the scalar loop for planes whose
  // flat size could overflow it (never hit by real workloads).
  if (h * w > std::numeric_limits<std::int32_t>::max() ||
      h > std::numeric_limits<std::int32_t>::max() ||
      w > std::numeric_limits<std::int32_t>::max()) {
    for (std::int64_t xx = 0; xx < w; ++xx) {
      const double in_x = t.m00 * xx + t.m01 * y + t.tx;
      const double in_y = t.m10 * xx + t.m11 * y + t.ty;
      const std::int64_t x0 = static_cast<std::int64_t>(std::floor(in_x));
      const std::int64_t y0 = static_cast<std::int64_t>(std::floor(in_y));
      const double fx = in_x - x0;
      const double fy = in_y - y0;
      double acc = 0.0;
      for (int dyi = 0; dyi <= 1; ++dyi) {
        const std::int64_t sy = y0 + dyi;
        if (sy < 0 || sy >= h) continue;
        const double wy = dyi ? fy : 1.0 - fy;
        for (int dxi = 0; dxi <= 1; ++dxi) {
          const std::int64_t sx = x0 + dxi;
          if (sx < 0 || sx >= w) continue;
          const double wx = dxi ? fx : 1.0 - fx;
          acc += wy * wx * src[sy * w + sx];
        }
      }
      dst[xx] = static_cast<float>(acc);
    }
    return;
  }

  // m01*y / m11*y are loop-invariant: hoisting them reuses the exact
  // product the scalar loop recomputes per pixel, so the association
  // ((m00*xx) + (m01*y)) + tx is preserved bit for bit.
  const __m256d vm00 = _mm256_set1_pd(t.m00);
  const __m256d vm10 = _mm256_set1_pd(t.m10);
  const __m256d vm01y = _mm256_set1_pd(t.m01 * static_cast<double>(y));
  const __m256d vm11y = _mm256_set1_pd(t.m11 * static_cast<double>(y));
  const __m256d vtx = _mm256_set1_pd(t.tx);
  const __m256d vty = _mm256_set1_pd(t.ty);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m128i vh = _mm_set1_epi32(static_cast<std::int32_t>(h));
  const __m128i vw = _mm_set1_epi32(static_cast<std::int32_t>(w));
  const __m128i minus1 = _mm_set1_epi32(-1);
  const __m128i one32 = _mm_set1_epi32(1);

  std::int64_t xx = 0;
  for (; xx + 4 <= w; xx += 4) {
    const __m256d xv =
        _mm256_setr_pd(static_cast<double>(xx), static_cast<double>(xx + 1),
                       static_cast<double>(xx + 2), static_cast<double>(xx + 3));
    const __m256d in_x =
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(vm00, xv), vm01y), vtx);
    const __m256d in_y =
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(vm10, xv), vm11y), vty);
    const __m256d x0d = _mm256_floor_pd(in_x);
    const __m256d y0d = _mm256_floor_pd(in_y);
    const __m256d fx = _mm256_sub_pd(in_x, x0d);
    const __m256d fy = _mm256_sub_pd(in_y, y0d);
    // Integral doubles convert exactly; out-of-int32-range (and NaN)
    // lanes become INT32_MIN, which the bounds masks reject — the same
    // pixels the scalar loop skips via its int64 range checks.
    const __m128i x0i = _mm256_cvtpd_epi32(x0d);
    const __m128i y0i = _mm256_cvtpd_epi32(y0d);
    const __m256d wx0 = _mm256_sub_pd(one, fx);
    const __m256d wy0 = _mm256_sub_pd(one, fy);

    __m256d acc = _mm256_setzero_pd();
    for (int dyi = 0; dyi <= 1; ++dyi) {
      const __m128i sy = dyi ? _mm_add_epi32(y0i, one32) : y0i;
      const __m256d wy = dyi ? fy : wy0;
      const __m128i sy_ok =
          _mm_and_si128(_mm_cmpgt_epi32(sy, minus1), _mm_cmpgt_epi32(vh, sy));
      for (int dxi = 0; dxi <= 1; ++dxi) {
        const __m128i sx = dxi ? _mm_add_epi32(x0i, one32) : x0i;
        const __m256d wx = dxi ? fx : wx0;
        const __m128i ok = _mm_and_si128(
            sy_ok,
            _mm_and_si128(_mm_cmpgt_epi32(sx, minus1), _mm_cmpgt_epi32(vw, sx)));
        const __m128i idx = _mm_add_epi32(_mm_mullo_epi32(sy, vw), sx);
        const __m128 gathered = _mm_mask_i32gather_ps(
            _mm_setzero_ps(), src, idx, _mm_castsi128_ps(ok), 4);
        const __m256d vals = _mm256_cvtps_pd(gathered);
        // term = (wy*wx) * src, the scalar association; masked lanes are
        // forced to +0.0, bit-equal to the scalar skip (the accumulator
        // can never be -0.0, so adding +0.0 is the identity).
        __m256d term = _mm256_mul_pd(_mm256_mul_pd(wy, wx), vals);
        const __m256d okd = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(ok));
        term = _mm256_and_pd(term, okd);
        acc = _mm256_add_pd(acc, term);
      }
    }
    _mm_storeu_ps(dst + xx, _mm256_cvtpd_ps(acc));
  }
  for (; xx < w; ++xx) {
    const double in_x = t.m00 * xx + t.m01 * y + t.tx;
    const double in_y = t.m10 * xx + t.m11 * y + t.ty;
    const std::int64_t x0 = static_cast<std::int64_t>(std::floor(in_x));
    const std::int64_t y0 = static_cast<std::int64_t>(std::floor(in_y));
    const double fx = in_x - x0;
    const double fy = in_y - y0;
    double acc = 0.0;
    for (int dyi = 0; dyi <= 1; ++dyi) {
      const std::int64_t sy = y0 + dyi;
      if (sy < 0 || sy >= h) continue;
      const double wy = dyi ? fy : 1.0 - fy;
      for (int dxi = 0; dxi <= 1; ++dxi) {
        const std::int64_t sx = x0 + dxi;
        if (sx < 0 || sx >= w) continue;
        const double wx = dxi ? fx : 1.0 - fx;
        acc += wy * wx * src[sy * w + sx];
      }
    }
    dst[xx] = static_cast<float>(acc);
  }
}

// ---- median rows ------------------------------------------------------------

namespace {

struct Avx2Lanes {
  using V = __m256;
  static __m256 load(const float* p) { return _mm256_loadu_ps(p); }
  // min_ps(x, y) is `x < y ? x : y` and max_ps(x, y) is `x > y ? x : y`
  // (the second operand on NaN or equal zeros), so min(a, b) and max(b, a)
  // are the scalar compare-exchange lane for lane, NaN and ±0 included.
  // max(a, b) would not be: it hands back b where the scalar keeps a.
  static void sort2(__m256& a, __m256& b) {
    const __m256 lo = _mm256_min_ps(a, b);
    b = _mm256_max_ps(b, a);
    a = lo;
  }
};

}  // namespace

void median3_row_avx2(const float* src, std::int64_t stride, float* dst,
                      std::int64_t count) {
  std::int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    _mm256_storeu_ps(dst + i, median3_at<Avx2Lanes>(src + i, stride));
  }
  median3_row_scalar(src + i, stride, dst + i, count - i);
}

void median5_row_avx2(const float* src, std::int64_t stride, float* dst,
                      std::int64_t count) {
  std::int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    _mm256_storeu_ps(dst + i, median5_at<Avx2Lanes>(src + i, stride));
  }
  median5_row_scalar(src + i, stride, dst + i, count - i);
}

// ---- 8x8 DCT-II -------------------------------------------------------------
// Rows then columns, exactly like signal::transform2d: each output element
// is an ascending fold over its 8 inputs with separate mul and add (no
// FMA), using the shared runtime cosine table, so results are bit-equal to
// the generic dct2d/idct2d path. SIMD width comes from computing 4 output
// elements (lanes) at once, never from reordering a fold.

void dct8x8_forward_avx2(const double* in, double* out) {
  const Dct8Table& tab = dct8_table();
  const __m256d scale_lo =
      _mm256_setr_pd(tab.scale0, tab.scale, tab.scale, tab.scale);
  const __m256d scale_hi = _mm256_set1_pd(tab.scale);
  double tmp[64];
  // Rows: tmp[y][k] = scale_k * sum_i in[y][i] * cos[i][k].
  for (int y = 0; y < 8; ++y) {
    const double* x = in + y * 8;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (int i = 0; i < 8; ++i) {
      const __m256d xv = _mm256_set1_pd(x[i]);
      acc0 = _mm256_add_pd(
          acc0, _mm256_mul_pd(xv, _mm256_loadu_pd(tab.cosv + i * 8)));
      acc1 = _mm256_add_pd(
          acc1, _mm256_mul_pd(xv, _mm256_loadu_pd(tab.cosv + i * 8 + 4)));
    }
    _mm256_storeu_pd(tmp + y * 8, _mm256_mul_pd(scale_lo, acc0));
    _mm256_storeu_pd(tmp + y * 8 + 4, _mm256_mul_pd(scale_hi, acc1));
  }
  // Columns: out[k][c] = scale_k * sum_y tmp[y][c] * cos[y][k].
  for (int k = 0; k < 8; ++k) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (int y = 0; y < 8; ++y) {
      const __m256d cv = _mm256_set1_pd(tab.cosv[y * 8 + k]);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(tmp + y * 8), cv));
      acc1 = _mm256_add_pd(acc1,
                           _mm256_mul_pd(_mm256_loadu_pd(tmp + y * 8 + 4), cv));
    }
    const __m256d sk = _mm256_set1_pd(k == 0 ? tab.scale0 : tab.scale);
    _mm256_storeu_pd(out + k * 8, _mm256_mul_pd(sk, acc0));
    _mm256_storeu_pd(out + k * 8 + 4, _mm256_mul_pd(sk, acc1));
  }
}

void dct8x8_inverse_avx2(const double* in, double* out) {
  const Dct8Table& tab = dct8_table();
  double tmp[64];
  // Rows: tmp[y][i] = scale0*x[0] + sum_{k>=1} (scale*x[k]) * cos[i][k].
  for (int y = 0; y < 8; ++y) {
    const double* x = in + y * 8;
    __m256d acc0 = _mm256_set1_pd(tab.scale0 * x[0]);
    __m256d acc1 = acc0;
    for (int k = 1; k < 8; ++k) {
      const __m256d sx = _mm256_set1_pd(tab.scale * x[k]);
      acc0 = _mm256_add_pd(
          acc0, _mm256_mul_pd(sx, _mm256_loadu_pd(tab.cosvT + k * 8)));
      acc1 = _mm256_add_pd(
          acc1, _mm256_mul_pd(sx, _mm256_loadu_pd(tab.cosvT + k * 8 + 4)));
    }
    _mm256_storeu_pd(tmp + y * 8, acc0);
    _mm256_storeu_pd(tmp + y * 8 + 4, acc1);
  }
  // Columns: out[i][c] = scale0*tmp[0][c] + sum_{k>=1} (scale*tmp[k][c]) * cos[i][k].
  const __m256d s0 = _mm256_set1_pd(tab.scale0);
  const __m256d s = _mm256_set1_pd(tab.scale);
  for (int i = 0; i < 8; ++i) {
    __m256d acc0 = _mm256_mul_pd(s0, _mm256_loadu_pd(tmp));
    __m256d acc1 = _mm256_mul_pd(s0, _mm256_loadu_pd(tmp + 4));
    for (int k = 1; k < 8; ++k) {
      const __m256d cv = _mm256_set1_pd(tab.cosv[i * 8 + k]);
      acc0 = _mm256_add_pd(
          acc0, _mm256_mul_pd(_mm256_mul_pd(s, _mm256_loadu_pd(tmp + k * 8)), cv));
      acc1 = _mm256_add_pd(
          acc1,
          _mm256_mul_pd(_mm256_mul_pd(s, _mm256_loadu_pd(tmp + k * 8 + 4)), cv));
    }
    _mm256_storeu_pd(out + i * 8, acc0);
    _mm256_storeu_pd(out + i * 8 + 4, acc1);
  }
}

}  // namespace blurnet::kernels::detail

#endif  // BLURNET_HAVE_AVX2_KERNELS
