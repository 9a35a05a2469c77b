#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "src/linalg/gemm.h"
#include "src/signal/dct.h"
#include "src/signal/kernels.h"
#include "src/tensor/ops.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/test_helpers.h"

namespace blurnet::autograd {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Variable, LeafAndConstant) {
  auto leaf = Variable::leaf(Tensor::scalar(2.0f));
  auto constant = Variable::constant(Tensor::scalar(3.0f));
  EXPECT_TRUE(leaf.requires_grad());
  EXPECT_FALSE(constant.requires_grad());
  EXPECT_FLOAT_EQ(leaf.scalar_value(), 2.0f);
}

TEST(Variable, ScalarValueThrowsOnNonScalar) {
  auto v = Variable::leaf(Tensor::zeros(Shape::vec(3)));
  EXPECT_THROW(v.scalar_value(), std::logic_error);
}

TEST(Variable, NoGradGuardDisablesGraphBuilding) {
  auto w = Variable::leaf(Tensor::scalar(2.0f), true);
  {
    // Under the guard, ops over requires-grad leaves must come out as plain
    // constants — this is what makes the graph-free serving forward
    // reachable with trained parameters.
    NoGradGuard no_grad;
    EXPECT_FALSE(grad_enabled());
    auto y = mul(w, w);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_FLOAT_EQ(y.scalar_value(), 4.0f);
  }
  EXPECT_TRUE(grad_enabled());
  auto y = mul(w, w);
  EXPECT_TRUE(y.requires_grad());
}

// Test-local oracles: explicit reference forwards that conv2d and
// depthwise_conv2d_same must reproduce bit for bit, with and without
// gradients, under every kernel target and worker count.

// pad2d + batch-wide im2col + one sgemm_nn per image, bias added after.
Tensor conv2d_oracle(const Tensor& x, const Tensor& w, const Tensor* bias, int stride,
                     int pad) {
  const std::int64_t n = x.dim(0), f = w.dim(0);
  const int kh = static_cast<int>(w.dim(2)), kw = static_cast<int>(w.dim(3));
  const std::int64_t patch = w.dim(1) * kh * kw;
  const std::int64_t oh = tensor::conv_out_size(x.dim(2) + 2 * pad, kh, stride);
  const std::int64_t ow = tensor::conv_out_size(x.dim(3) + 2 * pad, kw, stride);
  const Tensor cols = tensor::im2col(tensor::pad2d(x, pad, pad), kh, kw, stride, stride);
  Tensor out(Shape::nchw(n, f, oh, ow));
  for (std::int64_t in = 0; in < n; ++in) {
    linalg::sgemm_nn(f, oh * ow, patch, w.data(), cols.data() + in * patch * oh * ow,
                     out.data() + in * f * oh * ow, /*accumulate=*/false);
  }
  if (bias != nullptr) {
    for (std::int64_t in = 0; in < n; ++in)
      for (std::int64_t ic = 0; ic < f; ++ic) {
        float* plane = out.data() + (in * f + ic) * oh * ow;
        for (std::int64_t i = 0; i < oh * ow; ++i) plane[i] += (*bias)[ic];
      }
  }
  return out;
}

// Border-checked taps over the unpadded input, double accumulator, taps in
// ascending (fy, fx) order; bias added to the rounded float.
Tensor depthwise_oracle(const Tensor& x, const Tensor& w, const Tensor* bias) {
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), wdim = x.dim(3);
  const int kh = static_cast<int>(w.dim(1)), kw = static_cast<int>(w.dim(2));
  const int ph = kh / 2, pw = kw / 2;
  Tensor out(x.shape());
  for (std::int64_t p = 0; p < n * c; ++p) {
    const std::int64_t ic = p % c;
    const float* src = x.data() + p * h * wdim;
    const float* ker = w.data() + ic * kh * kw;
    float* dst = out.data() + p * h * wdim;
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t xx = 0; xx < wdim; ++xx) {
        double acc = 0.0;
        for (int fy = 0; fy < kh; ++fy) {
          const std::int64_t sy = y + fy - ph;
          if (sy < 0 || sy >= h) continue;
          for (int fx = 0; fx < kw; ++fx) {
            const std::int64_t sx = xx + fx - pw;
            if (sx < 0 || sx >= wdim) continue;
            acc += static_cast<double>(ker[fy * kw + fx]) * src[sy * wdim + sx];
          }
        }
        dst[y * wdim + xx] = static_cast<float>(acc);
        if (bias != nullptr) dst[y * wdim + xx] += (*bias)[ic];
      }
    }
  }
  return out;
}

// The depthwise backward and the affine-warp backward as they were before
// they ran on padded buffers and in parallel: border-checked scatters that
// skip a zero upstream gradient, a serial border-checked dW.
Tensor depthwise_dx_oracle(const Tensor& w, const Tensor& g) {
  const std::int64_t n = g.dim(0), c = g.dim(1), h = g.dim(2), wdim = g.dim(3);
  const int kh = static_cast<int>(w.dim(1)), kw = static_cast<int>(w.dim(2));
  const int ph = kh / 2, pw = kw / 2;
  Tensor dx(g.shape());
  const float* wv = w.data();
  for (std::int64_t p = 0; p < n * c; ++p) {
    const std::int64_t ic = p % c;
    const float* ker = wv + ic * kh * kw;
    const float* gp = g.data() + p * h * wdim;
    float* dst = dx.data() + p * h * wdim;
    // Correlation adjoint: scatter each output grad through the kernel.
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t xx = 0; xx < wdim; ++xx) {
        const float gv = gp[y * wdim + xx];
        if (gv == 0.0f) continue;
        for (int fy = 0; fy < kh; ++fy) {
          const std::int64_t sy = y + fy - ph;
          if (sy < 0 || sy >= h) continue;
          for (int fx = 0; fx < kw; ++fx) {
            const std::int64_t sx = xx + fx - pw;
            if (sx < 0 || sx >= wdim) continue;
            dst[sy * wdim + sx] += ker[fy * kw + fx] * gv;
          }
        }
      }
    }
  }
  return dx;
}

Tensor depthwise_dw_oracle(const Tensor& x, const Tensor& w, const Tensor& g) {
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), wdim = x.dim(3);
  const int kh = static_cast<int>(w.dim(1)), kw = static_cast<int>(w.dim(2));
  const int ph = kh / 2, pw = kw / 2;
  Tensor dw(w.shape());
  const float* xv = x.data();
  for (std::int64_t p = 0; p < n * c; ++p) {
    const std::int64_t ic = p % c;
    const float* src = xv + p * h * wdim;
    const float* gp = g.data() + p * h * wdim;
    float* dker = dw.data() + ic * kh * kw;
    for (int fy = 0; fy < kh; ++fy) {
      for (int fx = 0; fx < kw; ++fx) {
        double acc = 0.0;
        for (std::int64_t y = 0; y < h; ++y) {
          const std::int64_t sy = y + fy - ph;
          if (sy < 0 || sy >= h) continue;
          for (std::int64_t xx = 0; xx < wdim; ++xx) {
            const std::int64_t sx = xx + fx - pw;
            if (sx < 0 || sx >= wdim) continue;
            acc += static_cast<double>(gp[y * wdim + xx]) * src[sy * wdim + sx];
          }
        }
        dker[fy * kw + fx] += static_cast<float>(acc);
      }
    }
  }
  return dw;
}

Tensor affine_warp_dx_oracle(const std::vector<Affine2D>& transforms, const Tensor& grad) {
  const std::int64_t n = grad.dim(0), c = grad.dim(1), h = grad.dim(2), w = grad.dim(3);
  Tensor dx(grad.shape());
  const float* g = grad.data();
  for (std::int64_t p = 0; p < n * c; ++p) {
    const Affine2D& t = transforms[static_cast<std::size_t>(p / c)];
    const float* gp = g + p * h * w;
    float* dst = dx.data() + p * h * w;
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t xx = 0; xx < w; ++xx) {
        const float gv = gp[y * w + xx];
        if (gv == 0.0f) continue;
        const double in_x = t.m00 * xx + t.m01 * y + t.tx;
        const double in_y = t.m10 * xx + t.m11 * y + t.ty;
        const std::int64_t x0 = static_cast<std::int64_t>(std::floor(in_x));
        const std::int64_t y0 = static_cast<std::int64_t>(std::floor(in_y));
        const double fx = in_x - x0;
        const double fy = in_y - y0;
        for (int dyi = 0; dyi <= 1; ++dyi) {
          const std::int64_t sy = y0 + dyi;
          if (sy < 0 || sy >= h) continue;
          const double wy = dyi ? fy : 1.0 - fy;
          for (int dxi = 0; dxi <= 1; ++dxi) {
            const std::int64_t sx = x0 + dxi;
            if (sx < 0 || sx >= w) continue;
            const double wx = dxi ? fx : 1.0 - fx;
            dst[sy * w + sx] += static_cast<float>(wy * wx * gv);
          }
        }
      }
    }
  }
  return dx;
}

// Upstream gradient for the backward oracles: every third entry an exact
// zero of either sign, the rest N(0, 1), so the oracles' zero skip is hit.
Tensor sparse_upstream(const Shape& shape, util::Rng& rng) {
  Tensor g = Tensor::randn(shape, rng);
  for (std::int64_t i = 0; i < g.numel(); i += 3) g[i] = (i / 3) % 2 ? -0.0f : 0.0f;
  return g;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want, const std::string& where) {
  ASSERT_EQ(got.shape(), want.shape()) << where;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << where << ", elem " << i;
  }
}

std::string sweep_label(const char* label, util::KernelTarget target, int workers) {
  return std::string(label) + ", " + util::kernel_target_name(target) + ", workers " +
         std::to_string(workers);
}

// Shapes that hit every column-strip and k-block edge of the implicit GEMM.
struct ConvCase {
  std::int64_t n, c, h, w, f;
  int k, stride, pad;
  bool bias;
  const char* label;
};

const ConvCase kConvCases[] = {
    {1, 3, 32, 32, 16, 5, 1, 2, true, "paper conv1, batch 1"},
    {64, 16, 32, 32, 32, 5, 2, 2, true, "paper conv2 (two k-blocks), batch 64"},
    {3, 32, 16, 16, 64, 3, 2, 1, true, "paper conv3, batch 3"},
    {3, 24, 9, 9, 5, 5, 1, 2, true, "three k-blocks, f=5, ow=9"},
    {3, 3, 11, 13, 13, 3, 2, 1, true, "f=13, ow=7: strips wrap rows, stride 2"},
    {1, 2, 7, 12, 4, 3, 1, 0, false, "unpadded, ow=10, no bias"},
    {2, 2, 10, 10, 3, 3, 3, 1, true, "stride 3"},
    {2, 3, 8, 8, 4, 3, 1, 1, true, "small stride 1"},
    {2, 3, 9, 11, 17, 3, 2, 0, true, "unpadded stride 2, odd width, f=17"},
    {1, 2, 12, 14, 20, 5, 2, 2, false, "stride 2, even padded width, no bias"},
    {2, 2, 11, 11, 3, 5, 3, 2, true, "stride 3, padded width not a multiple of 3"},
};

TEST(Ops, Conv2dBothModesBitwiseEqualExplicitGemmOracle) {
  util::Rng rng(21);
  for (const ConvCase& cc : kConvCases) {
    const Tensor xv = Tensor::randn(Shape::nchw(cc.n, cc.c, cc.h, cc.w), rng);
    const auto weights = Variable::leaf(
        Tensor::randn(Shape{cc.f, cc.c, cc.k, cc.k}, rng, 0.0f, 0.2f), true);
    const auto bias =
        cc.bias ? Variable::leaf(Tensor::randn(Shape::vec(cc.f), rng), true) : Variable();
    const auto x = Variable::constant(xv);
    for (const auto target : blurnet::testing::available_kernel_targets()) {
      blurnet::testing::ScopedKernelTarget scoped(target);
      const Tensor oracle = conv2d_oracle(xv, weights.value(),
                                          cc.bias ? &bias.value() : nullptr, cc.stride, cc.pad);
      for (const int workers : {1, 2, 4}) {
        util::set_parallel_workers(workers);
        const std::string where = sweep_label(cc.label, target, workers);
        const auto graph = conv2d(x, weights, bias, cc.stride, cc.pad);
        ASSERT_TRUE(graph.requires_grad()) << where;
        expect_bitwise_equal(graph.value(), oracle, where + ", graph");
        NoGradGuard no_grad;
        expect_bitwise_equal(conv2d(x, weights, bias, cc.stride, cc.pad).value(), oracle,
                             where + ", no grad");
      }
      util::reset_parallel_workers();
    }
  }
}

std::uint32_t bits_of(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// Bit-pattern equality, so -0 vs +0 and NaN payloads count as differences.
void expect_same_bits(const Tensor& got, const Tensor& want, const std::string& where) {
  ASSERT_EQ(got.shape(), want.shape()) << where;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(bits_of(got[i]), bits_of(want[i]))
        << where << ", elem " << i << ": " << got[i] << " vs " << want[i];
  }
}

// The fused conv+ReLU node must be the conv2d -> relu chain bit for bit: its
// value, and dX, dW and db under the same upstream gradient. The cases
// include upstream gradients that are negative (or NaN/Inf) on masked
// elements — the chain adds the masked products into a zeroed gradient, so
// a -0 arrives as +0 — and NaN pre-activations from NaN input pixels, which
// the ReLU maps to +0 and masks.
TEST(Ops, Conv2dReluFusedBitwiseEqualsConvThenRelu) {
  struct Mode {
    bool nan_inputs;      // NaN pixels make NaN pre-activations
    bool all_masked;      // a large negative bias masks every element
    bool odd_upstream;    // NaN and +-Inf in the upstream gradient
    const char* label;
  };
  const Mode modes[] = {{false, false, false, "random"},
                        {true, false, false, "NaN pre-activations"},
                        {false, true, false, "every element masked"},
                        {true, false, true, "NaN pre-activations, NaN/Inf upstream"}};
  util::Rng rng(29);
  for (const ConvCase& cc : kConvCases) {
    const std::int64_t n = std::min<std::int64_t>(cc.n, 3);
    const std::int64_t oh = tensor::conv_out_size(cc.h + 2 * cc.pad, cc.k, cc.stride);
    const std::int64_t ow = tensor::conv_out_size(cc.w + 2 * cc.pad, cc.k, cc.stride);
    for (const Mode& mode : modes) {
      Tensor xv = Tensor::randn(Shape::nchw(n, cc.c, cc.h, cc.w), rng);
      if (mode.nan_inputs) {
        for (std::int64_t i = 0; i < xv.numel(); i += 37) xv[i] = std::nanf("");
      }
      const Tensor wv = Tensor::randn(Shape{cc.f, cc.c, cc.k, cc.k}, rng, 0.0f, 0.2f);
      Tensor bv = Tensor::randn(Shape::vec(cc.f), rng);
      if (mode.all_masked) bv.fill(-1e6f);
      // Negative on roughly half the elements, masked or not.
      Tensor upstream = Tensor::randn(Shape::nchw(n, cc.f, oh, ow), rng);
      if (mode.all_masked) {
        for (std::int64_t i = 0; i < upstream.numel(); ++i) upstream[i] = -std::fabs(upstream[i]);
      }
      if (mode.odd_upstream) {
        for (std::int64_t i = 0; i < upstream.numel(); i += 5) {
          upstream[i] = i % 3 == 0 ? std::nanf("")
                                   : (i % 3 == 1 ? 1.0f : -1.0f) *
                                         std::numeric_limits<float>::infinity();
        }
      }
      for (const auto target : blurnet::testing::available_kernel_targets()) {
        blurnet::testing::ScopedKernelTarget scoped(target);
        for (const int workers : {1, 4}) {
          util::set_parallel_workers(workers);
          const std::string where =
              sweep_label(cc.label, target, workers) + ", " + mode.label;
          auto grads = [&](bool fused) {
            auto x = Variable::leaf(xv.clone(), true);
            auto w = Variable::leaf(wv.clone(), true);
            auto b = cc.bias ? Variable::leaf(bv.clone(), true) : Variable();
            const Variable y = fused ? conv2d(x, w, b, cc.stride, cc.pad, Activation::kRelu)
                                     : relu(conv2d(x, w, b, cc.stride, cc.pad));
            const Tensor value = y.value().clone();
            backward(sum(mul_const(y, upstream)));
            return std::vector<Tensor>{value, x.grad(), w.grad(),
                                       cc.bias ? b.grad() : Tensor()};
          };
          const std::vector<Tensor> chain = grads(false);
          const std::vector<Tensor> fused = grads(true);
          expect_same_bits(fused[0], chain[0], where + ", value");
          expect_same_bits(fused[1], chain[1], where + ", dX");
          expect_same_bits(fused[2], chain[2], where + ", dW");
          if (cc.bias) expect_same_bits(fused[3], chain[3], where + ", db");
          {
            NoGradGuard no_grad;
            const auto x = Variable::constant(xv);
            const auto w = Variable::constant(wv);
            const auto b = cc.bias ? Variable::constant(bv) : Variable();
            expect_same_bits(conv2d(x, w, b, cc.stride, cc.pad, Activation::kRelu).value(),
                             chain[0], where + ", no-grad value");
          }
          if (mode.all_masked && cc.bias) {
            // Every element is masked: nothing but +0 reaches the parameters.
            for (std::int64_t i = 0; i < fused[2].numel(); ++i) {
              if (!std::isnan(fused[2][i])) ASSERT_EQ(bits_of(fused[2][i]), 0u) << where;
            }
          }
        }
        util::reset_parallel_workers();
      }
    }
  }
}

// The conv backward, spelled out: dW = sum_n G_n * im2col(x_n)^T, db = the
// N/H/W sum of G, dX = unpad(col2im(W^T * G_n)).
struct ConvGrads {
  Tensor dx, dw, db;
};

ConvGrads conv2d_backward_oracle(const Tensor& x, const Tensor& w, const Tensor& g,
                                 int stride, int pad) {
  const std::int64_t n = x.dim(0), c = x.dim(1), f = w.dim(0);
  const int kh = static_cast<int>(w.dim(2)), kw = static_cast<int>(w.dim(3));
  const std::int64_t patch = c * kh * kw, cols_n = g.dim(2) * g.dim(3);
  const std::int64_t hp = x.dim(2) + 2 * pad, wp = x.dim(3) + 2 * pad;
  ConvGrads out;
  const Tensor cols = tensor::im2col(tensor::pad2d(x, pad, pad), kh, kw, stride, stride);
  out.dw = Tensor(w.shape());
  for (std::int64_t in = 0; in < n; ++in) {
    linalg::sgemm_nt(f, patch, cols_n, g.data() + in * f * cols_n,
                     cols.data() + in * patch * cols_n, out.dw.data(), /*accumulate=*/true);
  }
  out.db = tensor::reduce_nhw(g);
  Tensor dcols(Shape{n, patch, cols_n});
  for (std::int64_t in = 0; in < n; ++in) {
    linalg::sgemm_tn(patch, cols_n, f, w.data(), g.data() + in * f * cols_n,
                     dcols.data() + in * patch * cols_n, /*accumulate=*/false);
  }
  out.dx = tensor::unpad2d(tensor::col2im(dcols, n, c, hp, wp, kh, kw, stride, stride), pad,
                           pad);
  return out;
}

TEST(Ops, Conv2dGradientsBitwiseEqualExplicitBackwardOracle) {
  struct Tracked {
    bool x, w;  // the bias tracks gradients exactly when the weights do
    const char* label;
  };
  const Tracked tracked[] = {{true, false, "x only"}, {false, true, "w only"},
                             {true, true, "all"}};
  util::Rng rng(23);
  for (const ConvCase& cc : kConvCases) {
    // Four images keep every strip and k-block edge while bounding the
    // backward cost of the batch-64 case.
    const std::int64_t n = std::min<std::int64_t>(cc.n, 4);
    const Tensor xv = Tensor::randn(Shape::nchw(n, cc.c, cc.h, cc.w), rng);
    const Tensor wv = Tensor::randn(Shape{cc.f, cc.c, cc.k, cc.k}, rng, 0.0f, 0.2f);
    const Tensor bv = Tensor::randn(Shape::vec(cc.f), rng);
    const std::int64_t oh = tensor::conv_out_size(cc.h + 2 * cc.pad, cc.k, cc.stride);
    const std::int64_t ow = tensor::conv_out_size(cc.w + 2 * cc.pad, cc.k, cc.stride);
    // d(sum(y * G))/dy == G exactly, so G is the upstream gradient as given.
    const Tensor upstream = Tensor::randn(Shape::nchw(n, cc.f, oh, ow), rng);
    for (const auto target : blurnet::testing::available_kernel_targets()) {
      blurnet::testing::ScopedKernelTarget scoped(target);
      const ConvGrads oracle = conv2d_backward_oracle(xv, wv, upstream, cc.stride, cc.pad);
      for (const int workers : {1, 2, 4}) {
        util::set_parallel_workers(workers);
        for (const Tracked& t : tracked) {
          const std::string where =
              sweep_label(cc.label, target, workers) + ", tracking " + t.label;
          auto x = Variable::leaf(xv.clone(), t.x);
          auto w = Variable::leaf(wv.clone(), t.w);
          auto b = cc.bias ? Variable::leaf(bv.clone(), t.w) : Variable();
          backward(sum(mul_const(conv2d(x, w, b, cc.stride, cc.pad), upstream)));
          if (t.x) expect_bitwise_equal(x.grad(), oracle.dx, where + ", dX");
          EXPECT_EQ(x.has_grad(), t.x) << where;
          if (t.w) {
            expect_bitwise_equal(w.grad(), oracle.dw, where + ", dW");
            if (cc.bias) expect_bitwise_equal(b.grad(), oracle.db, where + ", db");
          }
          EXPECT_EQ(w.has_grad(), t.w) << where;
        }
      }
      util::reset_parallel_workers();
    }
  }
}

TEST(Backward, SimpleChain) {
  // y = (2x + 1)^2 summed; dy/dx = 2 * (2x+1) * 2.
  auto x = Variable::leaf(Tensor::from_vector({1.0f, -2.0f}));
  auto y = sum(mul(add_scalar(mul_scalar(x, 2.0f), 1.0f),
                   add_scalar(mul_scalar(x, 2.0f), 1.0f)));
  backward(y);
  EXPECT_FLOAT_EQ(y.scalar_value(), 9.0f + 9.0f);
  EXPECT_FLOAT_EQ(x.grad()[0], 12.0f);   // 4*(2*1+1)
  EXPECT_FLOAT_EQ(x.grad()[1], -12.0f);  // 4*(2*-2+1)
}

TEST(Backward, GradientAccumulatesAcrossUses) {
  // y = x*x uses x twice; gradient is 2x.
  auto x = Variable::leaf(Tensor::from_vector({3.0f}));
  auto y = sum(mul(x, x));
  backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
}

TEST(Backward, NoGradIntoConstants) {
  auto x = Variable::leaf(Tensor::from_vector({1.0f}));
  auto c = Variable::constant(Tensor::from_vector({5.0f}));
  auto y = sum(mul(x, c));
  backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST(Backward, NonScalarRootThrows) {
  auto x = Variable::leaf(Tensor::zeros(Shape::vec(3)));
  auto y = mul_scalar(x, 2.0f);
  EXPECT_THROW(backward(y), std::invalid_argument);
}

TEST(Backward, InferenceBuildsNoGraph) {
  auto x = Variable::constant(Tensor::from_vector({1.0f, 2.0f}));
  auto y = relu(add_scalar(x, 1.0f));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents().empty());
}

TEST(Backward, ZeroGradClears) {
  auto x = Variable::leaf(Tensor::from_vector({1.0f}));
  auto y = sum(mul_scalar(x, 3.0f));
  backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 3.0f);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(Backward, DiamondGraphTopologicalOrder) {
  // y = a*b + a; both paths must be accumulated exactly once.
  auto a = Variable::leaf(Tensor::from_vector({2.0f}));
  auto b = Variable::leaf(Tensor::from_vector({5.0f}));
  auto y = sum(add(mul(a, b), a));
  backward(y);
  EXPECT_FLOAT_EQ(a.grad()[0], 6.0f);  // b + 1
  EXPECT_FLOAT_EQ(b.grad()[0], 2.0f);  // a
}

TEST(Ops, ReluForward) {
  auto x = Variable::constant(Tensor::from_vector({-1.0f, 2.0f}));
  const auto y = relu(x);
  EXPECT_FLOAT_EQ(y.value()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 2.0f);
}

TEST(Ops, DenseMatchesManual) {
  auto x = Variable::constant(Tensor(Shape::mat(1, 2), {1.0f, 2.0f}));
  auto w = Variable::constant(Tensor(Shape::mat(2, 2), {1.0f, 0.0f, 0.0f, 1.0f}));
  auto b = Variable::constant(Tensor::from_vector({0.5f, -0.5f}));
  const auto y = dense(x, w, b);
  EXPECT_FLOAT_EQ(y.value().at2(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.value().at2(0, 1), 1.5f);
}

TEST(Ops, DenseInferenceFastPathBitwiseEqualsGraphPath) {
  // The inference-only dense path (no graph node, constant result) must be
  // bitwise equal to the graph path, like the convolution scratch fast paths.
  util::Rng rng(11);
  const Tensor xv = Tensor::randn(Shape::mat(7, 33), rng);
  const Tensor wv = Tensor::randn(Shape::mat(33, 18), rng);
  const Tensor bv = Tensor::randn(Shape::vec(18), rng);

  // Graph path: a grad-requiring input forces the make_op route.
  auto x_graph = Variable::leaf(xv.clone(), /*requires_grad=*/true);
  const auto graph =
      dense(x_graph, Variable::constant(wv), Variable::constant(bv)).value();

  // Fast path: no gradients anywhere.
  NoGradGuard no_grad;
  const auto fast =
      dense(Variable::constant(xv), Variable::constant(wv), Variable::constant(bv)).value();
  ASSERT_EQ(fast.shape(), graph.shape());
  for (std::int64_t i = 0; i < fast.numel(); ++i) {
    ASSERT_EQ(fast[i], graph[i]) << "element " << i;
  }

  // Bias-free form stays bitwise equal too.
  Variable no_bias;
  const auto fast_nb = dense(Variable::constant(xv), Variable::constant(wv), no_bias).value();
  for (std::int64_t i = 0; i < fast_nb.numel(); ++i) {
    ASSERT_EQ(fast_nb[i], tensor::matmul(xv, wv)[i]) << "element " << i;
  }
}

TEST(Ops, FlattenInferenceFastPathSharesStorage) {
  util::Rng rng(13);
  const Tensor xv = Tensor::randn(Shape::nchw(2, 3, 4, 4), rng);
  {
    // Inference: flatten is a zero-copy reshape of the activations.
    NoGradGuard no_grad;
    const auto flat = flatten2d(Variable::constant(xv));
    EXPECT_EQ(flat.shape(), Shape::mat(2, 48));
    EXPECT_TRUE(flat.value().shares_storage_with(xv));
  }
  // Training: the graph path deep-copies so the backward reshape is safe.
  auto leaf = Variable::leaf(xv.clone(), /*requires_grad=*/true);
  const auto flat = flatten2d(leaf);
  EXPECT_FALSE(flat.value().shares_storage_with(leaf.value()));
  for (std::int64_t i = 0; i < flat.value().numel(); ++i) {
    ASSERT_EQ(flat.value()[i], xv[i]);
  }
}

TEST(Ops, Conv2dIdentityKernel) {
  // 1x1 kernel of value 1 == identity mapping.
  util::Rng rng(5);
  auto x = Variable::constant(Tensor::randn(Shape::nchw(1, 1, 4, 4), rng));
  auto w = Variable::constant(Tensor::full(Shape{1, 1, 1, 1}, 1.0f));
  const auto y = conv2d(x, w, Variable(), 1, 0);
  for (std::int64_t i = 0; i < x.value().numel(); ++i) {
    EXPECT_FLOAT_EQ(y.value()[i], x.value()[i]);
  }
}

TEST(Ops, Conv2dStrideAndPadShapes) {
  auto x = Variable::constant(Tensor::zeros(Shape::nchw(2, 3, 32, 32)));
  util::Rng rng(6);
  auto w = Variable::constant(Tensor::randn(Shape{8, 3, 5, 5}, rng));
  auto b = Variable::constant(Tensor::zeros(Shape::vec(8)));
  EXPECT_EQ(conv2d(x, w, b, 2, 2).shape(), Shape::nchw(2, 8, 16, 16));
  EXPECT_EQ(conv2d(x, w, b, 1, 2).shape(), Shape::nchw(2, 8, 32, 32));
  // A zero stride would divide by zero sizing the output; a negative pad
  // would crop the input through the padding copy.
  EXPECT_THROW(conv2d(x, w, b, 0, 2), std::invalid_argument);
  EXPECT_THROW(conv2d(x, w, b, -1, 2), std::invalid_argument);
  EXPECT_THROW(conv2d(x, w, b, 1, -1), std::invalid_argument);
}

TEST(Ops, DepthwiseIdentityKernelIsIdentity) {
  util::Rng rng(7);
  auto x = Variable::constant(Tensor::randn(Shape::nchw(2, 3, 6, 6), rng));
  Tensor kernel(Shape{3, 3, 3});
  for (int c = 0; c < 3; ++c) kernel[(c * 3 + 1) * 3 + 1] = 1.0f;  // centre taps
  const auto y = depthwise_conv2d_same(x, Variable::constant(kernel), Variable());
  for (std::int64_t i = 0; i < x.value().numel(); ++i) {
    EXPECT_NEAR(y.value()[i], x.value()[i], 1e-6);
  }
}

TEST(Ops, DepthwiseMatchesSignalFilterInterior) {
  // Depthwise conv with a shared box kernel == signal::filter2d_depthwise in
  // the interior. Borders differ by design: the autograd op zero-pads (it
  // must stay linear for gradcheck) while the signal filter renormalizes by
  // the in-bounds kernel mass.
  util::Rng rng(8);
  auto x = Tensor::randn(Shape::nchw(1, 2, 8, 8), rng);
  Tensor kernel_stack(Shape{2, 3, 3});
  for (int c = 0; c < 2; ++c)
    for (int i = 0; i < 9; ++i) kernel_stack[c * 9 + i] = 1.0f / 9.0f;
  const auto via_op = depthwise_conv2d_same(Variable::constant(x),
                                            Variable::constant(kernel_stack), Variable());
  const auto via_signal = signal::filter2d_depthwise(x, signal::make_blur_kernel(3));
  for (std::int64_t c = 0; c < 2; ++c)
    for (std::int64_t y = 1; y < 7; ++y)
      for (std::int64_t xx = 1; xx < 7; ++xx) {
        EXPECT_NEAR(via_op.value().at4(0, c, y, xx), via_signal.at4(0, c, y, xx), 1e-5);
      }
}

TEST(Ops, SoftmaxCrossEntropyUniformLogits) {
  auto logits = Variable::constant(Tensor::zeros(Shape::mat(2, 4)));
  const auto loss = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(loss.scalar_value(), std::log(4.0), 1e-5);
}

TEST(Ops, SoftmaxCrossEntropyLabelValidation) {
  auto logits = Variable::constant(Tensor::zeros(Shape::mat(1, 3)));
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::invalid_argument);
}

TEST(Ops, TvLossOfConstantIsZero) {
  auto x = Variable::constant(Tensor::full(Shape::nchw(1, 2, 4, 4), 3.0f));
  EXPECT_FLOAT_EQ(tv_loss(x).scalar_value(), 0.0f);
}

TEST(Ops, TvLossKnownValue) {
  // Single 1x2 map [0, 1]: one horizontal difference of 1; N*C = 1.
  Tensor x(Shape::nchw(1, 1, 1, 2), {0.0f, 1.0f});
  EXPECT_FLOAT_EQ(tv_loss(Variable::constant(x)).scalar_value(), 1.0f);
}

TEST(Ops, TvLossPenalizesCheckerboardOverSmooth) {
  Tensor smooth(Shape::nchw(1, 1, 4, 4));
  Tensor checker(Shape::nchw(1, 1, 4, 4));
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) {
      smooth[y * 4 + x] = static_cast<float>(x) / 4.0f;
      checker[y * 4 + x] = ((x + y) % 2) ? 1.0f : 0.0f;
    }
  EXPECT_GT(tv_loss(Variable::constant(checker)).scalar_value(),
            tv_loss(Variable::constant(smooth)).scalar_value());
}

TEST(Ops, TikhonovRowsZeroForConstantColumns) {
  // L_hf annihilates constants, so constant feature maps give zero penalty.
  auto x = Variable::constant(Tensor::full(Shape::nchw(1, 1, 8, 8), 2.0f));
  Tensor l_hf(Shape::mat(8, 8));
  // I - moving average (window 3, clamped) — reuse defense helper semantics
  // via direct construction here to keep the test self-contained.
  for (int r = 0; r < 8; ++r) {
    int lo = std::max(0, r - 1), hi = std::min(7, r + 1);
    if (r == 0) hi = 2;
    if (r == 7) lo = 5;
    const float inv = 1.0f / 3.0f;
    for (int c = lo; c <= hi; ++c) l_hf.at2(r, c) -= inv;
    l_hf.at2(r, r) += 1.0f;
  }
  EXPECT_NEAR(tikhonov_rows(x, l_hf).scalar_value(), 0.0f, 1e-8);
}

TEST(Ops, TikhonovElementwiseKnownValue) {
  // P = 2 everywhere, F = 3 everywhere, 1 map of 2x2: ||P.F||^2 = 4*36; /NK=1.
  auto x = Variable::constant(Tensor::full(Shape::nchw(1, 1, 2, 2), 3.0f));
  const Tensor p = Tensor::full(Shape::mat(2, 2), 2.0f);
  EXPECT_FLOAT_EQ(tikhonov_elementwise(x, p).scalar_value(), 144.0f);
}

TEST(Ops, LinfPerChannelSumsChannelMaxima) {
  Tensor w(Shape{2, 2, 2}, {0.1f, -0.9f, 0.2f, 0.3f, 0.0f, 0.5f, -0.6f, 0.4f});
  EXPECT_FLOAT_EQ(linf_per_channel(Variable::constant(w)).scalar_value(), 0.9f + 0.6f);
}

TEST(Ops, L2NormAndL1Norm) {
  auto x = Variable::constant(Tensor::from_vector({3.0f, -4.0f}));
  EXPECT_FLOAT_EQ(l2_norm(x).scalar_value(), 5.0f);
  EXPECT_FLOAT_EQ(l1_norm(x).scalar_value(), 7.0f);
}

TEST(Ops, AffineWarpIdentity) {
  util::Rng rng(9);
  auto x = Variable::constant(Tensor::randn(Shape::nchw(1, 2, 6, 6), rng));
  const auto y = affine_warp(x, Affine2D::identity());
  for (std::int64_t i = 0; i < x.value().numel(); ++i) {
    EXPECT_NEAR(y.value()[i], x.value()[i], 1e-6);
  }
}

TEST(Ops, AffineWarpTranslationShiftsPixels) {
  Tensor x = Tensor::zeros(Shape::nchw(1, 1, 5, 5));
  x.at4(0, 0, 2, 2) = 1.0f;
  Affine2D shift;  // output (x,y) samples input (x-1, y): move content right
  shift.tx = -1.0;
  const auto y = affine_warp(Variable::constant(x), shift);
  EXPECT_FLOAT_EQ(y.value().at4(0, 0, 2, 3), 1.0f);
  EXPECT_FLOAT_EQ(y.value().at4(0, 0, 2, 2), 0.0f);
}

TEST(Ops, AffineWarpRotationAboutCenterKeepsCenter) {
  Tensor x = Tensor::zeros(Shape::nchw(1, 1, 9, 9));
  x.at4(0, 0, 4, 4) = 1.0f;
  const auto t = Affine2D::rotation_scale_about_center(0.7, 1.0, 0.0, 0.0, 9, 9);
  const auto y = affine_warp(Variable::constant(x), t);
  EXPECT_NEAR(y.value().at4(0, 0, 4, 4), 1.0f, 1e-5);
}

TEST(Ops, DctLowpassOpMatchesSignal) {
  util::Rng rng(10);
  const auto x = Tensor::randn(Shape::nchw(1, 1, 8, 8), rng);
  const auto via_op = dct_lowpass(Variable::constant(x), 3).value();
  const auto via_signal = signal::dct_lowpass_nchw(x, 3);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(via_op[i], via_signal[i], 1e-6);
}

TEST(Ops, NpsZeroOnPaletteColors) {
  // A perturbation exactly at a printable colour has zero NPS.
  Tensor palette(Shape::mat(2, 3), {0.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f});
  Tensor x = Tensor::zeros(Shape::nchw(1, 3, 2, 2));  // all-black == palette[0]
  EXPECT_NEAR(nps_loss(Variable::constant(x), palette).scalar_value(), 0.0f, 1e-7);
}

TEST(Ops, NpsPositiveOffPalette) {
  Tensor palette(Shape::mat(2, 3), {0.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f});
  Tensor x = Tensor::full(Shape::nchw(1, 3, 1, 1), 0.5f);
  EXPECT_GT(nps_loss(Variable::constant(x), palette).scalar_value(), 0.0f);
}

TEST(Ops, AffineWarpPerSampleTransformsWarpRowsIndependently) {
  // Row 0 shifts its content right, row 1 left: each row obeys its own pose.
  Tensor x = Tensor::zeros(Shape::nchw(2, 1, 5, 5));
  x.at4(0, 0, 2, 2) = 1.0f;
  x.at4(1, 0, 2, 2) = 1.0f;
  Affine2D right, left;  // inverse-warp convention: output samples input
  right.tx = -1.0;
  left.tx = 1.0;
  const auto y = affine_warp(Variable::constant(x), {right, left});
  EXPECT_FLOAT_EQ(y.value().at4(0, 0, 2, 3), 1.0f);
  EXPECT_FLOAT_EQ(y.value().at4(1, 0, 2, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.value().at4(0, 0, 2, 1), 0.0f);
  EXPECT_FLOAT_EQ(y.value().at4(1, 0, 2, 3), 0.0f);
}

TEST(Ops, AffineWarpBatchOfEqualTransformsBitwiseEqualsSingle) {
  // The single-transform overload and n copies of the same transform must be
  // the same float program — exactly, in both the forward and the gradient.
  util::Rng rng(21);
  const Tensor x0 = Tensor::randn(Shape::nchw(3, 2, 7, 7), rng);
  const auto t = Affine2D::rotation_scale_about_center(0.35, 0.9, 1.2, -0.7, 7, 7);

  auto x_single = Variable::leaf(x0.clone());
  auto x_batch = Variable::leaf(x0.clone());
  const auto y_single = affine_warp(x_single, t);
  const auto y_batch = affine_warp(x_batch, std::vector<Affine2D>(3, t));
  for (std::int64_t i = 0; i < y_single.value().numel(); ++i) {
    ASSERT_EQ(y_single.value()[i], y_batch.value()[i]) << "forward diverged at " << i;
  }
  backward(sum_squares(y_single));
  backward(sum_squares(y_batch));
  for (std::int64_t i = 0; i < x0.numel(); ++i) {
    ASSERT_EQ(x_single.grad()[i], x_batch.grad()[i]) << "gradient diverged at " << i;
  }
}

TEST(Ops, AffineWarpOutOfBoundsTapsReadAndPropagateZero) {
  // A shift larger than the image: every output pixel samples outside, so the
  // forward is exactly zero and no gradient flows back into the input.
  util::Rng rng(22);
  auto x = Variable::leaf(Tensor::randn(Shape::nchw(1, 1, 4, 4), rng));
  Affine2D far_shift;
  far_shift.tx = 10.0;
  far_shift.ty = -10.0;
  const auto y = affine_warp(x, far_shift);
  for (std::int64_t i = 0; i < y.value().numel(); ++i) EXPECT_EQ(y.value()[i], 0.0f);
  backward(sum(y));
  for (std::int64_t i = 0; i < x.value().numel(); ++i) EXPECT_EQ(x.grad()[i], 0.0f);
}

TEST(Ops, AffineWarpTransformCountMismatchThrows) {
  auto x = Variable::constant(Tensor::zeros(Shape::nchw(2, 1, 4, 4)));
  EXPECT_THROW(affine_warp(x, std::vector<Affine2D>(3)), std::invalid_argument);
  EXPECT_THROW(affine_warp(x, std::vector<Affine2D>{}), std::invalid_argument);
}

TEST(Ops, RepeatBatchTilesPoseMajorAndSumsGrad) {
  // Layout contract the EOT pipeline relies on: copy j of the whole batch
  // occupies rows [j*n, (j+1)*n).
  Tensor x0(Shape::nchw(2, 1, 1, 2), {1.0f, 2.0f, 3.0f, 4.0f});
  auto x = Variable::leaf(x0.clone());
  auto tiled = repeat_batch(x, 3);
  EXPECT_EQ(tiled.shape(), Shape::nchw(6, 1, 1, 2));
  for (int j = 0; j < 3; ++j) {
    for (std::int64_t i = 0; i < 4; ++i) {
      EXPECT_FLOAT_EQ(tiled.value()[j * 4 + i], x0[i]) << "copy " << j << " element " << i;
    }
  }
  backward(sum(tiled));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad()[i], 3.0f);

  EXPECT_THROW(repeat_batch(x, 0), std::invalid_argument);
  EXPECT_THROW(repeat_batch(Variable::constant(Tensor::zeros(Shape::vec(3))), 2),
               std::invalid_argument);
}

TEST(Ops, BroadcastBatchTilesAndSumsGrad) {
  auto x = Variable::leaf(Tensor::full(Shape::nchw(1, 1, 2, 2), 1.5f));
  auto tiled = broadcast_batch(x, 3);
  EXPECT_EQ(tiled.shape(), Shape::nchw(3, 1, 2, 2));
  for (std::int64_t i = 0; i < tiled.value().numel(); ++i) {
    EXPECT_FLOAT_EQ(tiled.value()[i], 1.5f);
  }
  auto loss = sum(tiled);
  backward(loss);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad()[i], 3.0f);
}

TEST(Ops, FlattenShapes) {
  auto x = Variable::constant(Tensor::zeros(Shape::nchw(2, 3, 4, 4)));
  EXPECT_EQ(flatten2d(x).shape(), Shape::mat(2, 48));
}

// The affine-warp row kernel and the depthwise tap loop are dispatched, but
// every target replicates the scalar op order (including how out-of-bounds
// taps are skipped), so the forwards must be bitwise identical across all
// available targets.
TEST(KernelDispatch, AffineWarpForwardBitwiseIdenticalAcrossTargets) {
  util::Rng rng(91);
  // 17-wide hits the 4-lane SIMD body plus a tail; the rotation pushes taps
  // out of bounds along every edge, and the far shift makes all taps OOB.
  auto x = Variable::constant(Tensor::randn(Shape::nchw(2, 2, 9, 17), rng));
  Affine2D rot = Affine2D::rotation_scale_about_center(0.35, 1.2, 0.7, -0.4, 9, 17);
  Affine2D far_shift;
  far_shift.tx = 40.0;
  std::vector<Affine2D> transforms{rot, far_shift};
  for (const Affine2D& t : transforms) {
    std::vector<float> scalar_out;
    for (const auto target : blurnet::testing::available_kernel_targets()) {
      blurnet::testing::ScopedKernelTarget scoped(target);
      const auto y = affine_warp(x, t);
      if (target == util::KernelTarget::kScalar) {
        scalar_out.assign(y.value().data(), y.value().data() + y.value().numel());
        continue;
      }
      for (std::int64_t i = 0; i < y.value().numel(); ++i) {
        ASSERT_EQ(y.value()[i], scalar_out[static_cast<std::size_t>(i)])
            << util::kernel_target_name(target) << " elem " << i;
      }
    }
  }
}

// The padded tap row steps 16 px, then 4, then 1 on AVX2 (2, then 1 on
// NEON): the widths cover rows shorter than one 16-px step, exact steps, and
// steps with 4-px and single-px tails, at k = 3, 5 and 7. Both modes match
// the border-checked oracle.
TEST(KernelDispatch, DepthwiseBothModesBitwiseEqualOracleAcrossTargets) {
  struct DepthwiseCase {
    std::int64_t n, c, h, w;
    int k;
    bool bias;
  };
  const DepthwiseCase cases[] = {
      {2, 3, 8, 21, 3, false}, {1, 2, 5, 7, 3, true},   {2, 3, 9, 16, 5, true},
      {1, 4, 6, 37, 5, false}, {2, 2, 11, 32, 7, true}, {1, 3, 4, 19, 7, false},
      {1, 2, 3, 5, 7, true},
  };
  util::Rng rng(92);
  for (const DepthwiseCase& dc : cases) {
    const Tensor xv = Tensor::randn(Shape::nchw(dc.n, dc.c, dc.h, dc.w), rng);
    const auto kernel = Variable::leaf(Tensor::randn(Shape{dc.c, dc.k, dc.k}, rng), true);
    const auto bias =
        dc.bias ? Variable::leaf(Tensor::randn(Shape::vec(dc.c), rng), true) : Variable();
    const Tensor oracle =
        depthwise_oracle(xv, kernel.value(), dc.bias ? &bias.value() : nullptr);
    const auto x = Variable::constant(xv);
    const std::string label = "k=" + std::to_string(dc.k) + ", w=" + std::to_string(dc.w) +
                              (dc.bias ? ", bias" : ", no bias");
    for (const auto target : blurnet::testing::available_kernel_targets()) {
      blurnet::testing::ScopedKernelTarget scoped(target);
      for (const int workers : {1, 2, 4}) {
        util::set_parallel_workers(workers);
        const std::string where = sweep_label(label.c_str(), target, workers);
        const auto graph = depthwise_conv2d_same(x, kernel, bias);
        ASSERT_TRUE(graph.requires_grad()) << where;
        expect_bitwise_equal(graph.value(), oracle, where + ", graph");
        NoGradGuard no_grad;
        expect_bitwise_equal(depthwise_conv2d_same(x, kernel, bias).value(), oracle,
                             where + ", no grad");
      }
      util::reset_parallel_workers();
    }
  }
}

// The depthwise backward runs on padded buffers with no border checks or
// zero skip, dW in parallel over channels: for finite values it reproduces
// the border-checked scatter oracles bit for bit, with the weights trainable
// or frozen, under every target and worker count.
TEST(KernelDispatch, DepthwiseGradientsBitwiseEqualScatterOracles) {
  util::Rng rng(93);
  for (const int k : {3, 5, 7}) {
    for (const std::int64_t width : {1, 7, 8, 9, 16, 17, 32}) {
      // Three images: a sum of three floats depends on its order.
      const Shape shape = Shape::nchw(3, 3, 6, width);
      const Tensor xv = Tensor::randn(shape, rng);
      Tensor kv = Tensor::randn(Shape{3, k, k}, rng);
      kv[k + 1] = 0.0f;  // a zero tap: its products are exact ±0
      const Tensor g = sparse_upstream(shape, rng);
      const Tensor want_dx = depthwise_dx_oracle(kv, g);
      const Tensor want_dw = depthwise_dw_oracle(xv, kv, g);
      const std::string label = "k=" + std::to_string(k) + ", w=" + std::to_string(width);
      for (const auto target : blurnet::testing::available_kernel_targets()) {
        blurnet::testing::ScopedKernelTarget scoped(target);
        for (const int workers : {1, 4}) {
          util::set_parallel_workers(workers);
          const std::string where = sweep_label(label.c_str(), target, workers);
          for (const bool trainable : {true, false}) {
            auto x = Variable::leaf(xv, true);
            auto kernel = Variable::leaf(kv, trainable);
            backward(sum(mul_const(depthwise_conv2d_same(x, kernel, Variable()), g)));
            expect_same_bits(x.grad(), want_dx, where + ", dX");
            if (trainable) {
              expect_same_bits(kernel.grad(), want_dw, where + ", dW");
            } else {
              EXPECT_FALSE(kernel.has_grad()) << where;
            }
          }
        }
        util::reset_parallel_workers();
      }
    }
  }
}

// The one intended difference from the oracle: a non-finite kernel tap meets
// every upstream gradient, zeros included, so 0 x Inf = NaN reaches dX (the
// oracle's zero skip dropped it and returned 0).
TEST(Ops, DepthwiseDxPropagatesNonFiniteKernelTap) {
  const Shape shape = Shape::nchw(1, 2, 5, 9);
  auto x = Variable::leaf(Tensor::zeros(shape), true);
  Tensor kv = Tensor::zeros(Shape{2, 3, 3});
  kv[4] = std::numeric_limits<float>::infinity();         // channel 0 centre
  kv[9 + 4] = std::numeric_limits<float>::quiet_NaN();    // channel 1 centre
  const auto kernel = Variable::constant(kv);
  backward(sum(mul_const(depthwise_conv2d_same(x, kernel, Variable()), Tensor::zeros(shape))));
  const Tensor oracle = depthwise_dx_oracle(kv, Tensor::zeros(shape));
  for (std::int64_t i = 0; i < shape.numel(); ++i) {
    EXPECT_TRUE(std::isnan(x.grad()[i])) << "elem " << i;
    EXPECT_EQ(oracle[i], 0.0f) << "elem " << i;
  }
}

// The warp backward, parallel over planes and without its zero skip, equals
// the serial scatter oracle bit for bit: rotations that push taps past every
// edge, a shift that makes every tap out of bounds, and zero gradients.
TEST(KernelDispatch, AffineWarpBackwardBitwiseEqualsScatterOracle) {
  util::Rng rng(94);
  for (const std::int64_t width : {1, 7, 8, 9, 16, 17, 32}) {
    const Shape shape = Shape::nchw(3, 3, 9, width);
    const Tensor xv = Tensor::randn(shape, rng);
    Affine2D far_shift;
    far_shift.tx = 40.0;
    const std::vector<Affine2D> transforms{
        Affine2D::rotation_scale_about_center(0.35, 1.2, 0.7, -0.4, 9, width), far_shift,
        Affine2D::rotation_scale_about_center(-0.2, 0.9, -1.5, 0.3, 9, width)};
    const Tensor g = sparse_upstream(shape, rng);
    const Tensor want = affine_warp_dx_oracle(transforms, g);
    for (const auto target : blurnet::testing::available_kernel_targets()) {
      blurnet::testing::ScopedKernelTarget scoped(target);
      for (const int workers : {1, 4}) {
        util::set_parallel_workers(workers);
        auto x = Variable::leaf(xv, true);
        backward(sum(mul_const(affine_warp(x, transforms), g)));
        expect_same_bits(x.grad(), want,
                         sweep_label(("w=" + std::to_string(width)).c_str(), target, workers));
      }
      util::reset_parallel_workers();
    }
  }
}

}  // namespace
}  // namespace blurnet::autograd
