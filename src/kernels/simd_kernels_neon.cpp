// AArch64 NEON (ASIMD) kernels. Compiled only on aarch64 builds (CMake
// sets BLURNET_HAVE_NEON_KERNELS there); one of the three files allowed to
// use raw intrinsics (tools/lint.py `simd-confinement`).
//
// Numerics mirror the AVX2 TU: the GEMM microtile uses fused
// multiply-add (vfmaq, one rounding per term — the per-target GEMM
// contract, bitwise-modelled by linalg::sgemm_reference_fused); the tile
// store, tap and median kernels reproduce the scalar op order exactly and
// are bit-equal to the scalar target. Warp and DCT have no NEON
// specialization — dispatch falls back to scalar there.
#include "src/kernels/simd_kernels.h"

#if defined(BLURNET_HAVE_NEON_KERNELS)

#include <arm_neon.h>

#include <cstdint>

namespace blurnet::kernels::detail {

// ---- GEMM 4x8 microtile (two 4x4 quads) -------------------------------------

void gemm_microtile_neon(std::int64_t kc, const float* ap, const float* b,
                         std::int64_t ldb, float* acc) {
  float32x4_t c00 = vdupq_n_f32(0.0f), c01 = vdupq_n_f32(0.0f);
  float32x4_t c10 = vdupq_n_f32(0.0f), c11 = vdupq_n_f32(0.0f);
  float32x4_t c20 = vdupq_n_f32(0.0f), c21 = vdupq_n_f32(0.0f);
  float32x4_t c30 = vdupq_n_f32(0.0f), c31 = vdupq_n_f32(0.0f);
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float32x4_t av = vld1q_f32(ap + kk * 4);
    const float32x4_t b0 = vld1q_f32(b + kk * ldb);
    const float32x4_t b1 = vld1q_f32(b + kk * ldb + 4);
    c00 = vfmaq_laneq_f32(c00, b0, av, 0);
    c01 = vfmaq_laneq_f32(c01, b1, av, 0);
    c10 = vfmaq_laneq_f32(c10, b0, av, 1);
    c11 = vfmaq_laneq_f32(c11, b1, av, 1);
    c20 = vfmaq_laneq_f32(c20, b0, av, 2);
    c21 = vfmaq_laneq_f32(c21, b1, av, 2);
    c30 = vfmaq_laneq_f32(c30, b0, av, 3);
    c31 = vfmaq_laneq_f32(c31, b1, av, 3);
  }
  vst1q_f32(acc + 0, c00);
  vst1q_f32(acc + 4, c01);
  vst1q_f32(acc + 8, c10);
  vst1q_f32(acc + 12, c11);
  vst1q_f32(acc + 16, c20);
  vst1q_f32(acc + 20, c21);
  vst1q_f32(acc + 24, c30);
  vst1q_f32(acc + 28, c31);
}

// ---- GEMM tile store ----------------------------------------------------------

void gemm_store_neon(const float* acc, std::int64_t rows, std::int64_t cols,
                     float* c, std::int64_t ldc, bool first, const float* bias,
                     bool relu) {
  // Full tiles only; a partial tile takes the scalar store. The add keeps
  // c + acc operand order, and the ReLU masks with a greater-than compare
  // (vmaxq would propagate NaN), so NaN and -0 come out +0 as in scalar.
  if (cols != kGemmNr) {
    gemm_store_scalar(acc, rows, cols, c, ldc, first, bias, relu);
    return;
  }
  const float32x4_t zero = vdupq_n_f32(0.0f);
  auto rectify = [&](float32x4_t v) {
    return vreinterpretq_f32_u32(
        vandq_u32(vreinterpretq_u32_f32(v), vcgtq_f32(v, zero)));
  };
  for (std::int64_t ii = 0; ii < rows; ++ii) {
    float* crow = c + ii * ldc;
    float32x4_t v0 = vld1q_f32(acc + ii * kGemmNr);
    float32x4_t v1 = vld1q_f32(acc + ii * kGemmNr + 4);
    if (!first) {
      v0 = vaddq_f32(vld1q_f32(crow), v0);
      v1 = vaddq_f32(vld1q_f32(crow + 4), v1);
    }
    if (bias != nullptr) {
      const float32x4_t bv = vdupq_n_f32(bias[ii]);
      v0 = vaddq_f32(v0, bv);
      v1 = vaddq_f32(v1, bv);
    }
    if (relu) {
      v0 = rectify(v0);
      v1 = rectify(v1);
    }
    vst1q_f32(crow, v0);
    vst1q_f32(crow + 4, v1);
  }
}

// ---- convolution tap rows ---------------------------------------------------

void tap_row_neon(const float* src, std::int64_t stride, const float* ker,
                  int kh, int kw, float* dst, std::int64_t count) {
  std::int64_t i = 0;
  // Two output pixels per iteration: float64x2 lanes are independent
  // double accumulators walking the taps in the scalar (fy, fx) order
  // with separate mul and add (no fused contraction).
  for (; i + 2 <= count; i += 2) {
    float64x2_t acc = vdupq_n_f64(0.0);
    for (int fy = 0; fy < kh; ++fy) {
      const float* row = src + fy * stride + i;
      for (int fx = 0; fx < kw; ++fx) {
        const float64x2_t tap = vdupq_n_f64(static_cast<double>(ker[fy * kw + fx]));
        const float64x2_t v = vcvt_f64_f32(vld1_f32(row + fx));
        acc = vaddq_f64(acc, vmulq_f64(tap, v));
      }
    }
    const float32x2_t out = vcvt_f32_f64(acc);
    vst1_f32(dst + i, out);
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

// ---- median rows ------------------------------------------------------------

namespace {

struct NeonLanes {
  using V = float32x4_t;
  static float32x4_t load(const float* p) { return vld1q_f32(p); }
  // vminq/vmaxq propagate NaN and order -0 below +0, unlike the scalar
  // `a < b ? a : b`; select on the a < b mask instead so every lane makes
  // the scalar compare-exchange's choice.
  static void sort2(float32x4_t& a, float32x4_t& b) {
    const uint32x4_t lt = vcltq_f32(a, b);
    const float32x4_t lo = vbslq_f32(lt, a, b);
    b = vbslq_f32(lt, b, a);
    a = lo;
  }
};

}  // namespace

void median3_row_neon(const float* src, std::int64_t stride, float* dst,
                      std::int64_t count) {
  std::int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    vst1q_f32(dst + i, median3_at<NeonLanes>(src + i, stride));
  }
  median3_row_scalar(src + i, stride, dst + i, count - i);
}

void median5_row_neon(const float* src, std::int64_t stride, float* dst,
                      std::int64_t count) {
  std::int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    vst1q_f32(dst + i, median5_at<NeonLanes>(src + i, stride));
  }
  median5_row_scalar(src + i, stride, dst + i, count - i);
}

}  // namespace blurnet::kernels::detail

#endif  // BLURNET_HAVE_NEON_KERNELS
