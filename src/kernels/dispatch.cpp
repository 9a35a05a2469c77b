#include "src/kernels/dispatch.h"

#include <cmath>

#include "src/kernels/simd_kernels.h"

namespace blurnet::kernels {

namespace {

// ---- scalar reference implementations ---------------------------------------
// These are the pre-dispatch loops, verbatim: the scalar target must stay
// bit-for-bit the numerics every PR before this one shipped.

void gemm_microtile_scalar(std::int64_t kc, const float* ap, const float* b,
                           std::int64_t ldb, float* acc) {
  constexpr std::int64_t mr = 4;
  // Accumulate into a local tile, not through `acc`: the compiler can see
  // the local never aliases ap/b, which is what lets it keep the 8-wide
  // j loop auto-vectorized (through the pointer parameter it emits scalar
  // code and the whole target runs ~5x slower).
  float local[mr * kGemmNr] = {};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * mr;
    const float* brow = b + kk * ldb;
    for (std::int64_t i = 0; i < mr; ++i) {
      const float av = arow[i];
      float* crow = local + i * kGemmNr;
      for (std::int64_t j = 0; j < kGemmNr; ++j) crow[j] += av * brow[j];
    }
  }
  for (std::int64_t i = 0; i < mr * kGemmNr; ++i) acc[i] = local[i];
}

}  // namespace

namespace detail {

void gemm_store_scalar(const float* acc, std::int64_t rows, std::int64_t cols,
                       float* c, std::int64_t ldc, bool first, const float* bias,
                       bool relu) {
  for (std::int64_t ii = 0; ii < rows; ++ii) {
    float* crow = c + ii * ldc;
    const float* arow = acc + ii * kGemmNr;
    for (std::int64_t jj = 0; jj < cols; ++jj) {
      float v = first ? arow[jj] : crow[jj] + arow[jj];
      if (bias != nullptr) v = v + bias[ii];
      if (relu) v = v > 0 ? v : 0.0f;
      crow[jj] = v;
    }
  }
}

}  // namespace detail

namespace {

void tap_row_scalar(const float* src, std::int64_t stride, const float* ker,
                    int kh, int kw, float* dst, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
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

void warp_row_scalar(const float* src, std::int64_t h, std::int64_t w,
                     const WarpCoeffs& t, std::int64_t y, float* dst) {
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
}

constexpr GemmMicrokernel kGemmScalar{4, /*fused=*/false, gemm_microtile_scalar};
#if defined(BLURNET_HAVE_AVX2_KERNELS)
constexpr GemmMicrokernel kGemmAvx2{8, /*fused=*/true,
                                    detail::gemm_microtile_avx2};
#endif
#if defined(BLURNET_HAVE_AVX512_KERNELS)
constexpr GemmMicrokernel kGemmAvx512{16, /*fused=*/true,
                                      detail::gemm_microtile_avx512};
#endif
#if defined(BLURNET_HAVE_NEON_KERNELS)
constexpr GemmMicrokernel kGemmNeon{4, /*fused=*/true,
                                    detail::gemm_microtile_neon};
#endif

// avx512 owns only its GEMM tile; every other kernel it runs is avx2's.
util::KernelTarget table_target(util::KernelTarget target) {
  return target == util::KernelTarget::kAvx512 ? util::KernelTarget::kAvx2 : target;
}

}  // namespace

namespace detail {

const Dct8Table& dct8_table() {
  static const Dct8Table table = [] {
    // Launder cos through a volatile pointer so the compiler cannot
    // constant-fold the table (a compile-time MPFR fold could disagree in
    // the last bit with the runtime libm that signal::dct1d_into calls,
    // breaking the scalar==simd bitwise contract).
    double (*volatile cos_fn)(double) = std::cos;
    Dct8Table t;
    constexpr int n = 8;
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        t.cosv[i * n + k] = cos_fn(M_PI * (2.0 * i + 1.0) * k / (2.0 * n));
      }
    }
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) t.cosvT[k * n + i] = t.cosv[i * n + k];
    }
    t.scale0 = std::sqrt(1.0 / n);
    t.scale = std::sqrt(2.0 / n);
    return t;
  }();
  return table;
}

/// One 8-point DCT-II (or its inverse) along a line whose elements sit
/// `stride` apart, folded exactly like one lane of the AVX2 kernels.
template <bool kInverse>
void dct8_line(const Dct8Table& tab, const double* x, int stride, double* out) {
  for (int j = 0; j < 8; ++j) {
    double acc = kInverse ? tab.scale0 * x[0] : 0.0;
    if (kInverse) {
      for (int k = 1; k < 8; ++k) acc += tab.scale * x[k * stride] * tab.cosv[j * 8 + k];
    } else {
      for (int i = 0; i < 8; ++i) acc += x[i * stride] * tab.cosv[i * 8 + j];
      acc *= j == 0 ? tab.scale0 : tab.scale;
    }
    out[j * stride] = acc;
  }
}

/// Rows then columns, one output element at a time: the scalar reference
/// the AVX2 kernels and signal::dct2d/idct2d match bitwise.
template <bool kInverse>
void dct8x8_scalar(const double* in, double* out) {
  const Dct8Table& tab = dct8_table();
  double tmp[64];
  for (int y = 0; y < 8; ++y) dct8_line<kInverse>(tab, in + y * 8, 1, tmp + y * 8);
  for (int c = 0; c < 8; ++c) dct8_line<kInverse>(tab, tmp + c, 8, out + c);
}

void median3_row_scalar(const float* src, std::int64_t stride, float* dst,
                        std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    dst[i] = median3_at<ScalarLanes>(src + i, stride);
  }
}

void median5_row_scalar(const float* src, std::int64_t stride, float* dst,
                        std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    dst[i] = median5_at<ScalarLanes>(src + i, stride);
  }
}

}  // namespace detail

const GemmMicrokernel& gemm_microkernel(util::KernelTarget target) {
  switch (target) {
    case util::KernelTarget::kAvx512:
#if defined(BLURNET_HAVE_AVX512_KERNELS)
      return kGemmAvx512;
#else
      break;
#endif
    case util::KernelTarget::kAvx2:
#if defined(BLURNET_HAVE_AVX2_KERNELS)
      return kGemmAvx2;
#else
      break;
#endif
    case util::KernelTarget::kNeon:
#if defined(BLURNET_HAVE_NEON_KERNELS)
      return kGemmNeon;
#else
      break;
#endif
    case util::KernelTarget::kScalar:
      break;
  }
  return kGemmScalar;
}

GemmRowFn gemm_row(util::KernelTarget target) {
#if defined(BLURNET_HAVE_AVX2_KERNELS)
  if (table_target(target) == util::KernelTarget::kAvx2) return detail::gemm_row_avx2;
#endif
  (void)target;
  return nullptr;  // the driver keeps the microtile path
}

GemmStoreFn gemm_store(util::KernelTarget target) {
#if defined(BLURNET_HAVE_AVX2_KERNELS)
  if (table_target(target) == util::KernelTarget::kAvx2) return detail::gemm_store_avx2;
#endif
#if defined(BLURNET_HAVE_NEON_KERNELS)
  if (target == util::KernelTarget::kNeon) return detail::gemm_store_neon;
#endif
  (void)target;
  return detail::gemm_store_scalar;
}

TapRowFn tap_row(util::KernelTarget target) {
  switch (table_target(target)) {
    case util::KernelTarget::kAvx2:
#if defined(BLURNET_HAVE_AVX2_KERNELS)
      return detail::tap_row_avx2;
#else
      break;
#endif
    case util::KernelTarget::kNeon:
#if defined(BLURNET_HAVE_NEON_KERNELS)
      return detail::tap_row_neon;
#else
      break;
#endif
    case util::KernelTarget::kAvx512:
    case util::KernelTarget::kScalar:
      break;
  }
  return tap_row_scalar;
}

WarpRowFn warp_row(util::KernelTarget target) {
#if defined(BLURNET_HAVE_AVX2_KERNELS)
  if (table_target(target) == util::KernelTarget::kAvx2) return detail::warp_row_avx2;
#endif
  (void)target;  // neon: no specialization, scalar numerics are the contract
  return warp_row_scalar;
}

MedianRowFn median3_row(util::KernelTarget target) {
#if defined(BLURNET_HAVE_AVX2_KERNELS)
  if (table_target(target) == util::KernelTarget::kAvx2) return detail::median3_row_avx2;
#endif
#if defined(BLURNET_HAVE_NEON_KERNELS)
  if (target == util::KernelTarget::kNeon) return detail::median3_row_neon;
#endif
  (void)target;
  return detail::median3_row_scalar;
}

MedianRowFn median5_row(util::KernelTarget target) {
#if defined(BLURNET_HAVE_AVX2_KERNELS)
  if (table_target(target) == util::KernelTarget::kAvx2) return detail::median5_row_avx2;
#endif
#if defined(BLURNET_HAVE_NEON_KERNELS)
  if (target == util::KernelTarget::kNeon) return detail::median5_row_neon;
#endif
  (void)target;
  return detail::median5_row_scalar;
}

Dct8x8Fn dct8x8(util::KernelTarget target, bool inverse) {
#if defined(BLURNET_HAVE_AVX2_KERNELS)
  if (table_target(target) == util::KernelTarget::kAvx2) {
    return inverse ? detail::dct8x8_inverse_avx2 : detail::dct8x8_forward_avx2;
  }
#endif
  (void)target;
  return inverse ? detail::dct8x8_scalar<true> : detail::dct8x8_scalar<false>;
}

}  // namespace blurnet::kernels
