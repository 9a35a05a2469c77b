#include "src/defense/input_transform.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/kernels/dispatch.h"
#include "src/util/parallel.h"

namespace blurnet::defense {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Per-thread scratch for the plane-at-a-time kernels, mirroring the conv
/// path's ConvScratch: each worker lane reuses one allocation across planes
/// instead of mallocing per call, and lanes never share buffers.
struct TransformScratch {
  std::vector<float> padded;   // median: replicate-padded plane
  std::vector<float> window;   // median: the k*k samples under one pixel
  std::vector<double> block;   // dct-quant: one 8x8 block (pixel domain)
  std::vector<double> coeff;   // dct-quant: the block's DCT coefficients
};

TransformScratch& transform_scratch() {
  thread_local TransformScratch scratch;
  return scratch;
}

/// Normalize a CHW image or NCHW batch to NCHW (shared-storage reshape).
Tensor as_nchw(const Tensor& x, const char* op) {
  if (x.rank() == 3) {
    return x.reshape(Shape::nchw(1, x.dim(0), x.dim(1), x.dim(2)));
  }
  if (x.rank() != 4) {
    throw std::invalid_argument(std::string(op) +
                                ": expected a CHW image (rank 3) or NCHW batch (rank 4), "
                                "got rank " + std::to_string(x.rank()));
  }
  return x;
}

/// JPEG Annex K.1 luminance quantization table, row-major 8x8.
constexpr int kJpegLuminanceQ[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

/// libjpeg-convention quality scaling of the base table, clamped to [1,255].
std::vector<double> scaled_quant_table(int quality) {
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::vector<double> table(64);
  for (int i = 0; i < 64; ++i) {
    const int q = std::clamp((kJpegLuminanceQ[i] * scale + 50) / 100, 1, 255);
    table[static_cast<std::size_t>(i)] = static_cast<double>(q);
  }
  return table;
}

}  // namespace

const char* to_string(TransformKind kind) {
  switch (kind) {
    case TransformKind::kNone:
      return "none";
    case TransformKind::kSqueeze:
      return "squeeze";
    case TransformKind::kMedian:
      return "median";
    case TransformKind::kDctQuant:
      return "dctq";
  }
  return "?";
}

TransformSpec TransformSpec::squeeze(int bits) {
  TransformSpec spec;
  spec.kind = TransformKind::kSqueeze;
  spec.bits = bits;
  return spec;
}

TransformSpec TransformSpec::median(int kernel) {
  TransformSpec spec;
  spec.kind = TransformKind::kMedian;
  spec.kernel = kernel;
  return spec;
}

TransformSpec TransformSpec::dct_quant(int quality) {
  TransformSpec spec;
  spec.kind = TransformKind::kDctQuant;
  spec.quality = quality;
  return spec;
}

std::string TransformSpec::name() const {
  switch (kind) {
    case TransformKind::kNone:
      return "none";
    case TransformKind::kSqueeze:
      return "squeeze" + std::to_string(bits);
    case TransformKind::kMedian:
      return "median" + std::to_string(kernel);
    case TransformKind::kDctQuant:
      return "dctq" + std::to_string(quality);
  }
  return "?";
}

void TransformSpec::validate() const {
  switch (kind) {
    case TransformKind::kNone:
      return;
    case TransformKind::kSqueeze:
      if (bits < 1 || bits > 8) {
        throw std::invalid_argument("TransformSpec: squeeze bits must be in 1..8 (got " +
                                    std::to_string(bits) + ")");
      }
      return;
    case TransformKind::kMedian:
      if (kernel < 1 || kernel % 2 == 0) {
        throw std::invalid_argument(
            "TransformSpec: median kernel must be odd and >= 1 (got " +
            std::to_string(kernel) + ")");
      }
      return;
    case TransformKind::kDctQuant:
      if (quality < 1 || quality > 100) {
        throw std::invalid_argument(
            "TransformSpec: dct-quant quality must be in 1..100 (got " +
            std::to_string(quality) + ")");
      }
      return;
  }
  throw std::invalid_argument("TransformSpec: unknown transform kind");
}

Tensor bit_depth_squeeze(const Tensor& x, int bits) {
  TransformSpec::squeeze(bits).validate();
  const float levels = static_cast<float>((1 << bits) - 1);
  Tensor out(x.shape());
  const float* src = x.data();
  float* dst = out.data();
  util::parallel_for(x.numel(), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float v = std::clamp(src[i], 0.0f, 1.0f);
      dst[i] = std::round(v * levels) / levels;
    }
  });
  return out;
}

Tensor median_filter_nchw(const Tensor& x, int kernel) {
  TransformSpec::median(kernel).validate();
  const Tensor batch = as_nchw(x, "median_filter_nchw");
  if (kernel == 1) return x.clone();
  const std::int64_t planes = batch.dim(0) * batch.dim(1);
  const std::int64_t h = batch.dim(2), w = batch.dim(3);
  const int pad = kernel / 2;
  const std::int64_t ph = h + 2 * pad, pw = w + 2 * pad;
  const std::size_t taps = static_cast<std::size_t>(kernel) * static_cast<std::size_t>(kernel);

  // 3x3 and 5x5 (the zoo's median3/median5) run a dispatched min/max
  // network a full row at a time; it computes the same order statistic as
  // nth_element (see the median contract in kernels/dispatch.h). Larger
  // windows keep the window + nth_element loop.
  const util::KernelTarget target = util::active_kernel_target();
  const kernels::MedianRowFn median_row = kernel == 3   ? kernels::median3_row(target)
                                          : kernel == 5 ? kernels::median5_row(target)
                                                        : nullptr;
  Tensor out(x.shape());
  util::parallel_for(
      planes,
      [&](std::int64_t p0, std::int64_t p1) {
        auto& scratch = transform_scratch();
        scratch.padded.resize(static_cast<std::size_t>(ph * pw));
        scratch.window.resize(taps);
        for (std::int64_t p = p0; p < p1; ++p) {
          const float* src = batch.data() + p * h * w;
          float* dst = out.data() + p * h * w;
          // Replicate-pad the plane so every window holds exactly k*k
          // samples: an odd count, so the median is a single order statistic
          // and constant regions stay constant right up to the border.
          float* padded = scratch.padded.data();
          for (std::int64_t y = 0; y < ph; ++y) {
            const std::int64_t sy = std::clamp<std::int64_t>(y - pad, 0, h - 1);
            for (std::int64_t xx = 0; xx < pw; ++xx) {
              const std::int64_t sx = std::clamp<std::int64_t>(xx - pad, 0, w - 1);
              padded[y * pw + xx] = src[sy * w + sx];
            }
          }
          if (median_row != nullptr) {
            for (std::int64_t y = 0; y < h; ++y) {
              median_row(padded + y * pw, pw, dst + y * w, w);
            }
            continue;
          }
          for (std::int64_t y = 0; y < h; ++y) {
            for (std::int64_t xx = 0; xx < w; ++xx) {
              float* window = scratch.window.data();
              for (int fy = 0; fy < kernel; ++fy) {
                const float* row = padded + (y + fy) * pw + xx;
                for (int fx = 0; fx < kernel; ++fx) window[fy * kernel + fx] = row[fx];
              }
              std::nth_element(window, window + taps / 2, window + taps);
              dst[y * w + xx] = window[taps / 2];
            }
          }
        }
      },
      /*min_chunk=*/1);
  return out;
}

Tensor dct_quantize_nchw(const Tensor& x, int quality) {
  TransformSpec::dct_quant(quality).validate();
  const Tensor batch = as_nchw(x, "dct_quantize_nchw");
  const std::int64_t planes = batch.dim(0) * batch.dim(1);
  const std::int64_t h = batch.dim(2), w = batch.dim(3);
  constexpr int kBlock = 8;
  const std::vector<double> quant = scaled_quant_table(quality);

  Tensor out(x.shape());
  // The 8x8 transform is kernel-dispatched: every target uses a shared
  // runtime cosine table with the exact fold order of signal::dct2d/idct2d,
  // so every target produces bitwise-identical blocks.
  const util::KernelTarget target = util::active_kernel_target();
  const kernels::Dct8x8Fn dct_fwd = kernels::dct8x8(target, /*inverse=*/false);
  const kernels::Dct8x8Fn dct_inv = kernels::dct8x8(target, /*inverse=*/true);
  util::parallel_for(
      planes,
      [&](std::int64_t p0, std::int64_t p1) {
        auto& scratch = transform_scratch();
        scratch.block.resize(kBlock * kBlock);
        scratch.coeff.resize(kBlock * kBlock);
        for (std::int64_t p = p0; p < p1; ++p) {
          const float* src = batch.data() + p * h * w;
          float* dst = out.data() + p * h * w;
          for (std::int64_t by = 0; by < h; by += kBlock) {
            for (std::int64_t bx = 0; bx < w; bx += kBlock) {
              // Gather the block, replicating edge pixels past the image
              // boundary (32x32 planes tile evenly; the clamp only matters
              // for odd sizes). JPEG convention: [0,255] range, centred.
              for (int y = 0; y < kBlock; ++y) {
                const std::int64_t sy = std::min<std::int64_t>(by + y, h - 1);
                for (int xx = 0; xx < kBlock; ++xx) {
                  const std::int64_t sx = std::min<std::int64_t>(bx + xx, w - 1);
                  scratch.block[static_cast<std::size_t>(y * kBlock + xx)] =
                      static_cast<double>(src[sy * w + sx]) * 255.0 - 128.0;
                }
              }
              dct_fwd(scratch.block.data(), scratch.coeff.data());
              for (int i = 0; i < kBlock * kBlock; ++i) {
                const double q = quant[static_cast<std::size_t>(i)];
                scratch.coeff[static_cast<std::size_t>(i)] =
                    std::round(scratch.coeff[static_cast<std::size_t>(i)] / q) * q;
              }
              dct_inv(scratch.coeff.data(), scratch.block.data());
              const double* rebuilt = scratch.block.data();
              for (int y = 0; y < kBlock; ++y) {
                const std::int64_t oy = by + y;
                if (oy >= h) break;
                for (int xx = 0; xx < kBlock; ++xx) {
                  const std::int64_t ox = bx + xx;
                  if (ox >= w) break;
                  const double v =
                      (rebuilt[static_cast<std::size_t>(y * kBlock + xx)] + 128.0) / 255.0;
                  dst[oy * w + ox] = static_cast<float>(std::clamp(v, 0.0, 1.0));
                }
              }
            }
          }
        }
      },
      /*min_chunk=*/1);
  return out;
}

InputTransform::InputTransform(TransformSpec spec) : spec_(spec), name_(spec.name()) {
  spec_.validate();
}

InputTransform::InputTransform(TransformSpec spec, std::string name)
    : spec_(spec), name_(std::move(name)) {
  spec_.validate();
}

Tensor InputTransform::apply(const Tensor& images) const {
  switch (spec_.kind) {
    case TransformKind::kNone:
      return images.clone();
    case TransformKind::kSqueeze:
      return bit_depth_squeeze(images, spec_.bits);
    case TransformKind::kMedian:
      return median_filter_nchw(images, spec_.kernel);
    case TransformKind::kDctQuant:
      return dct_quantize_nchw(images, spec_.quality);
  }
  return images.clone();
}

TransformPtr make_transform(const TransformSpec& spec) {
  spec.validate();
  if (spec.kind == TransformKind::kNone) return nullptr;
  return std::make_shared<const InputTransform>(spec);
}

std::vector<TransformSpec> standard_transforms() {
  return {TransformSpec::squeeze(4),  TransformSpec::squeeze(5),
          TransformSpec::median(3),   TransformSpec::median(5),
          TransformSpec::dct_quant(50), TransformSpec::dct_quant(75)};
}

}  // namespace blurnet::defense
