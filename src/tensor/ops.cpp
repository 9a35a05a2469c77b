#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/linalg/gemm.h"
#include "src/util/parallel.h"

namespace blurnet::tensor {

namespace {

void require_same_numel(const Tensor& a, const Tensor& b, const char* op) {
  if (a.numel() != b.numel()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape().to_string() + " vs " + b.shape().to_string());
  }
}

Tensor binary(const Tensor& a, const Tensor& b, const char* op,
              float (*fn)(float, float)) {
  require_same_numel(a, b, op);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], pb[i]);
  return out;
}

Tensor unary(const Tensor& a, float (*fn)(float)) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = fn(pa[i]);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary(a, b, "add", [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary(a, b, "sub", [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary(a, b, "mul", [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary(a, b, "div", [](float x, float y) { return x / y; });
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor out = a.clone();
  float* p = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) p[i] += s;
  return out;
}

Tensor mul_scalar(const Tensor& a, float s) {
  Tensor out = a.clone();
  out.scale_(s);
  return out;
}

Tensor neg(const Tensor& a) { return mul_scalar(a, -1.0f); }
Tensor abs(const Tensor& a) { return unary(a, [](float x) { return std::fabs(x); }); }
Tensor sign(const Tensor& a) {
  return unary(a, [](float x) { return x > 0 ? 1.0f : (x < 0 ? -1.0f : 0.0f); });
}
Tensor square(const Tensor& a) { return unary(a, [](float x) { return x * x; }); }
Tensor sqrt(const Tensor& a) { return unary(a, [](float x) { return std::sqrt(x); }); }
Tensor exp(const Tensor& a) { return unary(a, [](float x) { return std::exp(x); }); }
Tensor log(const Tensor& a) { return unary(a, [](float x) { return std::log(x); }); }
Tensor relu(const Tensor& a) { return unary(a, [](float x) { return x > 0 ? x : 0.0f; }); }
Tensor relu_mask(const Tensor& a) {
  return unary(a, [](float x) { return x > 0 ? 1.0f : 0.0f; });
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = std::clamp(pa[i], lo, hi);
  return out;
}

Tensor maximum(const Tensor& a, const Tensor& b) {
  return binary(a, b, "maximum", [](float x, float y) { return x > y ? x : y; });
}
Tensor minimum(const Tensor& a, const Tensor& b) {
  return binary(a, b, "minimum", [](float x, float y) { return x < y ? x : y; });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: incompatible shapes " + a.shape().to_string() +
                                " x " + b.shape().to_string());
  }
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out(Shape::mat(m, n));
  linalg::sgemm_nn(m, n, k, a.data(), b.data(), out.data(), /*accumulate=*/false);
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(0) != b.dim(0)) {
    throw std::invalid_argument("matmul_tn: incompatible shapes");
  }
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out(Shape::mat(m, n));
  linalg::sgemm_tn(m, n, k, a.data(), b.data(), out.data(), /*accumulate=*/false);
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(1)) {
    throw std::invalid_argument("matmul_nt: incompatible shapes");
  }
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out(Shape::mat(m, n));
  linalg::sgemm_nt(m, n, k, a.data(), b.data(), out.data(), /*accumulate=*/false);
  return out;
}

Tensor transpose2d(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("transpose2d: rank must be 2");
  const std::int64_t r = a.dim(0), c = a.dim(1);
  Tensor out(Shape::mat(c, r));
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j) out.at2(j, i) = a.at2(i, j);
  return out;
}

Tensor pad2d(const Tensor& x, int pad_h, int pad_w) {
  if (x.rank() != 4) throw std::invalid_argument("pad2d: expected NCHW");
  if (pad_h == 0 && pad_w == 0) return x;
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out(Shape::nchw(n, c, h + 2 * pad_h, w + 2 * pad_w));
  pad2d_into(x.data(), n * c, h, w, pad_h, pad_w, out.data());
  return out;
}

void pad2d_into(const float* x, std::int64_t planes, std::int64_t h, std::int64_t w,
                int pad_h, int pad_w, float* out) {
  const std::int64_t hp = h + 2 * pad_h, wp = w + 2 * pad_w;
  for (std::int64_t p = 0; p < planes; ++p) {
    float* plane = out + p * hp * wp;
    std::fill(plane, plane + pad_h * wp, 0.0f);
    for (std::int64_t ih = 0; ih < h; ++ih) {
      const float* src = x + (p * h + ih) * w;
      float* dst = plane + (ih + pad_h) * wp;
      std::fill(dst, dst + pad_w, 0.0f);
      std::copy(src, src + w, dst + pad_w);
      std::fill(dst + pad_w + w, dst + wp, 0.0f);
    }
    std::fill(plane + (pad_h + h) * wp, plane + hp * wp, 0.0f);
  }
}

Tensor unpad2d(const Tensor& x, int pad_h, int pad_w) {
  if (x.rank() != 4) throw std::invalid_argument("unpad2d: expected NCHW");
  if (pad_h == 0 && pad_w == 0) return x;
  const std::int64_t n = x.dim(0), c = x.dim(1);
  const std::int64_t h = x.dim(2) - 2 * pad_h, w = x.dim(3) - 2 * pad_w;
  if (h <= 0 || w <= 0) throw std::invalid_argument("unpad2d: padding exceeds size");
  Tensor out(Shape::nchw(n, c, h, w));
  for (std::int64_t in = 0; in < n; ++in)
    for (std::int64_t ic = 0; ic < c; ++ic)
      for (std::int64_t ih = 0; ih < h; ++ih) {
        const float* src = x.data() +
                           ((in * c + ic) * (h + 2 * pad_h) + ih + pad_h) * (w + 2 * pad_w) +
                           pad_w;
        float* dst = out.data() + ((in * c + ic) * h + ih) * w;
        std::copy(src, src + w, dst);
      }
  return out;
}

std::int64_t conv_out_size(std::int64_t in, int kernel, int stride) {
  return (in - kernel) / stride + 1;
}

Tensor im2col(const Tensor& x, int kh, int kw, int stride_h, int stride_w) {
  if (x.rank() != 4) throw std::invalid_argument("im2col: expected NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = conv_out_size(h, kh, stride_h);
  const std::int64_t ow = conv_out_size(w, kw, stride_w);
  if (oh <= 0 || ow <= 0) throw std::invalid_argument("im2col: kernel larger than input");
  Tensor out(Shape{n, c * kh * kw, oh * ow});
  const std::int64_t patch = c * kh * kw;
  util::parallel_for(n, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t in = n0; in < n1; ++in) {
      float* base = out.data() + in * patch * oh * ow;
      for (std::int64_t ic = 0; ic < c; ++ic) {
        for (int fy = 0; fy < kh; ++fy) {
          for (int fx = 0; fx < kw; ++fx) {
            const std::int64_t row = (ic * kh + fy) * kw + fx;
            float* dst = base + row * oh * ow;
            const float* src_plane = x.data() + (in * c + ic) * h * w;
            for (std::int64_t oy = 0; oy < oh; ++oy) {
              const std::int64_t iy = oy * stride_h + fy;
              const float* src = src_plane + iy * w + fx;
              for (std::int64_t ox = 0; ox < ow; ++ox) {
                dst[oy * ow + ox] = src[ox * stride_w];
              }
            }
          }
        }
      }
    }
  }, /*min_chunk=*/1);
  return out;
}

Tensor col2im(const Tensor& cols, std::int64_t n, std::int64_t c, std::int64_t h,
              std::int64_t w, int kh, int kw, int stride_h, int stride_w) {
  const std::int64_t oh = conv_out_size(h, kh, stride_h);
  const std::int64_t ow = conv_out_size(w, kw, stride_w);
  const std::int64_t patch = c * kh * kw;
  if (cols.rank() != 3 || cols.dim(0) != n || cols.dim(1) != patch ||
      cols.dim(2) != oh * ow) {
    throw std::invalid_argument("col2im: column shape mismatch");
  }
  Tensor out(Shape::nchw(n, c, h, w));
  util::parallel_for(n, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t in = n0; in < n1; ++in) {
      const float* base = cols.data() + in * patch * oh * ow;
      for (std::int64_t ic = 0; ic < c; ++ic) {
        float* dst_plane = out.data() + (in * c + ic) * h * w;
        for (int fy = 0; fy < kh; ++fy) {
          for (int fx = 0; fx < kw; ++fx) {
            const std::int64_t row = (ic * kh + fy) * kw + fx;
            const float* src = base + row * oh * ow;
            for (std::int64_t oy = 0; oy < oh; ++oy) {
              const std::int64_t iy = oy * stride_h + fy;
              float* dst = dst_plane + iy * w + fx;
              for (std::int64_t ox = 0; ox < ow; ++ox) {
                dst[ox * stride_w] += src[oy * ow + ox];
              }
            }
          }
        }
      }
    }
  }, /*min_chunk=*/1);
  return out;
}

Tensor reduce_nhw(const Tensor& x) {
  if (x.rank() != 4) throw std::invalid_argument("reduce_nhw: expected NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor out(Shape::vec(c));
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t ic = 0; ic < c; ++ic) {
      const float* src = x.data() + (in * c + ic) * hw;
      double acc = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) acc += src[i];
      out[ic] += static_cast<float>(acc);
    }
  }
  return out;
}

Tensor broadcast_bias_nchw(const Tensor& x, const Tensor& bias) {
  if (x.rank() != 4 || bias.rank() != 1 || bias.dim(0) != x.dim(1)) {
    throw std::invalid_argument("broadcast_bias_nchw: shape mismatch");
  }
  Tensor out = x.clone();
  const std::int64_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  for (std::int64_t in = 0; in < n; ++in)
    for (std::int64_t ic = 0; ic < c; ++ic) {
      float* dst = out.data() + (in * c + ic) * hw;
      const float b = bias[ic];
      for (std::int64_t i = 0; i < hw; ++i) dst[i] += b;
    }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("softmax_rows: rank must be 2");
  const std::int64_t n = logits.dim(0), k = logits.dim(1);
  Tensor out(logits.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    float* dst = out.data() + i * k;
    float mx = row[0];
    for (std::int64_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < k; ++j) {
      dst[j] = std::exp(row[j] - mx);
      denom += dst[j];
    }
    for (std::int64_t j = 0; j < k; ++j) dst[j] = static_cast<float>(dst[j] / denom);
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("log_softmax_rows: rank must be 2");
  const std::int64_t n = logits.dim(0), k = logits.dim(1);
  Tensor out(logits.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    float* dst = out.data() + i * k;
    float mx = row[0];
    for (std::int64_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < k; ++j) denom += std::exp(row[j] - mx);
    const float log_denom = static_cast<float>(std::log(denom)) + mx;
    for (std::int64_t j = 0; j < k; ++j) dst[j] = row[j] - log_denom;
  }
  return out;
}

std::vector<int> argmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("argmax_rows: rank must be 2");
  const std::int64_t n = logits.dim(0), k = logits.dim(1);
  std::vector<int> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    int best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = static_cast<int>(j);
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

double dot(const Tensor& a, const Tensor& b) {
  require_same_numel(a, b, "dot");
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) acc += static_cast<double>(pa[i]) * pb[i];
  return acc;
}

double l2_dissimilarity(const Tensor& adv, const Tensor& natural) {
  require_same_numel(adv, natural, "l2_dissimilarity");
  double diff = 0.0, base = 0.0;
  const float* pa = adv.data();
  const float* pn = natural.data();
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    const double d = static_cast<double>(pa[i]) - pn[i];
    diff += d * d;
    base += static_cast<double>(pn[i]) * pn[i];
  }
  return base > 0 ? std::sqrt(diff) / std::sqrt(base) : std::sqrt(diff);
}

}  // namespace blurnet::tensor
