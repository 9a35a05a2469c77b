// Finite-difference validation of every backward closure in the autograd
// engine. Each case builds a scalar loss from a single leaf and compares the
// analytic gradient against central differences.
//
// Inputs are shifted away from non-differentiable points (ReLU kinks, abs at
// 0, argmax ties) so the checks are well-posed.
#include <gtest/gtest.h>

#include "src/autograd/gradcheck.h"
#include "src/autograd/ops.h"
#include "src/defense/regularizers.h"
#include "src/util/rng.h"

namespace blurnet::autograd {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor smooth_random(Shape shape, std::uint64_t seed, float offset = 0.6f) {
  util::Rng rng(seed);
  Tensor t = Tensor::randn(std::move(shape), rng, 0.0f, 0.5f);
  // Shift away from 0 so |x|, relu, sign subgradients are stable under the
  // finite-difference probe.
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    p[i] += (p[i] >= 0 ? offset : -offset);
  }
  return t;
}

void expect_gradcheck(const std::function<Variable(const Variable&)>& fn, const Tensor& x,
                      double rtol = 5e-2) {
  const auto result = gradcheck(fn, x, 1e-3, rtol);
  EXPECT_TRUE(result.passed) << "max_rel_error=" << result.max_rel_error
                             << " max_abs_error=" << result.max_abs_error;
}

TEST(GradCheck, AddMulChain) {
  expect_gradcheck(
      [](const Variable& x) {
        return sum(mul(add_scalar(x, 0.3f), mul_scalar(x, 1.7f)));
      },
      smooth_random(Shape::vec(6), 1));
}

TEST(GradCheck, Relu) {
  expect_gradcheck([](const Variable& x) { return sum(relu(x)); },
                   smooth_random(Shape::vec(8), 4));
}

TEST(GradCheck, Mean) {
  expect_gradcheck([](const Variable& x) { return mean(x); }, smooth_random(Shape::vec(7), 5));
}

TEST(GradCheck, SumSquares) {
  expect_gradcheck([](const Variable& x) { return sum_squares(x); },
                   smooth_random(Shape::vec(6), 6));
}

TEST(GradCheck, L1Norm) {
  expect_gradcheck([](const Variable& x) { return l1_norm(x); },
                   smooth_random(Shape::vec(6), 7));
}

TEST(GradCheck, L2Norm) {
  expect_gradcheck([](const Variable& x) { return l2_norm(x); },
                   smooth_random(Shape::vec(6), 8));
}

TEST(GradCheck, DenseAllInputs) {
  util::Rng rng(13);
  const Tensor x0 = Tensor::randn(Shape::mat(3, 4), rng);
  const Tensor w0 = Tensor::randn(Shape::mat(4, 5), rng);
  const Tensor b0 = Tensor::randn(Shape::vec(5), rng);
  // w.r.t. x
  expect_gradcheck(
      [&](const Variable& x) {
        return sum_squares(dense(x, Variable::constant(w0), Variable::constant(b0)));
      },
      x0);
  // w.r.t. w
  expect_gradcheck(
      [&](const Variable& w) {
        return sum_squares(dense(Variable::constant(x0), w, Variable::constant(b0)));
      },
      w0);
  // w.r.t. b
  expect_gradcheck(
      [&](const Variable& b) {
        return sum_squares(dense(Variable::constant(x0), Variable::constant(w0), b));
      },
      b0);
}

// Conv2d gradients over stride/pad configurations.
class Conv2dGradCheck : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Conv2dGradCheck, InputWeightBias) {
  const auto [kernel, stride, pad] = GetParam();
  util::Rng rng(20 + kernel + stride * 3 + pad * 7);
  // Small tensors and modest weight scale keep the float32 forward-pass
  // noise well below the finite-difference signal.
  const Tensor x0 = Tensor::randn(Shape::nchw(1, 2, 6, 6), rng, 0.0f, 0.5f);
  const Tensor w0 = Tensor::randn(Shape{2, 2, kernel, kernel}, rng, 0.0f, 0.2f);
  const Tensor b0 = Tensor::randn(Shape::vec(2), rng, 0.0f, 0.2f);
  expect_gradcheck(
      [&](const Variable& x) {
        return sum_squares(
            conv2d(x, Variable::constant(w0), Variable::constant(b0), stride, pad));
      },
      x0);
  expect_gradcheck(
      [&](const Variable& w) {
        return sum_squares(
            conv2d(Variable::constant(x0), w, Variable::constant(b0), stride, pad));
      },
      w0);
  expect_gradcheck(
      [&](const Variable& b) {
        return sum_squares(
            conv2d(Variable::constant(x0), Variable::constant(w0), b, stride, pad));
      },
      b0);
}

INSTANTIATE_TEST_SUITE_P(Configs, Conv2dGradCheck,
                         ::testing::Values(std::tuple{3, 1, 1}, std::tuple{3, 2, 1},
                                           std::tuple{5, 1, 2}, std::tuple{5, 2, 2},
                                           std::tuple{1, 1, 0}));

TEST(GradCheck, DepthwiseConvInputAndWeights) {
  util::Rng rng(30);
  const Tensor x0 = Tensor::randn(Shape::nchw(1, 3, 6, 6), rng);
  const Tensor w0 = Tensor::randn(Shape{3, 3, 3}, rng, 0.0f, 0.4f);
  expect_gradcheck(
      [&](const Variable& x) {
        return sum_squares(depthwise_conv2d_same(x, Variable::constant(w0), Variable()));
      },
      x0);
  expect_gradcheck(
      [&](const Variable& w) {
        return sum_squares(depthwise_conv2d_same(Variable::constant(x0), w, Variable()));
      },
      w0);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  util::Rng rng(31);
  const Tensor logits0 = Tensor::randn(Shape::mat(3, 5), rng);
  const std::vector<int> labels = {0, 2, 4};
  expect_gradcheck(
      [&labels](const Variable& logits) { return softmax_cross_entropy(logits, labels); },
      logits0);
}

TEST(GradCheck, TvLoss) {
  expect_gradcheck([](const Variable& x) { return tv_loss(x); },
                   smooth_random(Shape::nchw(1, 2, 4, 4), 32));
}

TEST(GradCheck, TikhonovRows) {
  const Tensor l_hf = defense::tik_hf_operator(5);
  expect_gradcheck([&l_hf](const Variable& x) { return tikhonov_rows(x, l_hf); },
                   smooth_random(Shape::nchw(1, 2, 5, 5), 33));
}

TEST(GradCheck, TikhonovElementwise) {
  const Tensor p = defense::tik_pseudo_operator(5, 5);
  expect_gradcheck([&p](const Variable& x) { return tikhonov_elementwise(x, p); },
                   smooth_random(Shape::nchw(1, 2, 5, 5), 34));
}

TEST(GradCheck, LinfPerChannel) {
  // Distinct magnitudes keep the per-channel argmax stable under probing.
  Tensor w0(Shape{2, 2, 2}, {0.9f, 0.1f, -0.2f, 0.3f, 0.1f, -0.8f, 0.2f, 0.4f});
  expect_gradcheck([](const Variable& w) { return linf_per_channel(w); }, w0);
}

TEST(GradCheck, AffineWarp) {
  const auto transform = Affine2D::rotation_scale_about_center(0.3, 0.9, 0.5, -0.3, 6, 6);
  expect_gradcheck(
      [&transform](const Variable& x) { return sum_squares(affine_warp(x, transform)); },
      smooth_random(Shape::nchw(1, 2, 6, 6), 35));
}

TEST(GradCheck, AffineWarpPerSampleTransforms) {
  // Every batch row warps under its own pose (the pose-batched EOT layout),
  // including one pose whose shift pushes part of the sample out of bounds —
  // the dropped taps must show up as exact zeros in the analytic gradient.
  const std::vector<Affine2D> transforms = {
      Affine2D::rotation_scale_about_center(0.4, 1.05, -0.6, 0.2, 6, 6),
      Affine2D::rotation_scale_about_center(-0.2, 0.8, 3.5, -3.5, 6, 6),
      Affine2D::identity(),
  };
  expect_gradcheck(
      [&transforms](const Variable& x) { return sum_squares(affine_warp(x, transforms)); },
      smooth_random(Shape::nchw(3, 2, 6, 6), 41));
}

TEST(GradCheck, RepeatBatch) {
  expect_gradcheck(
      [](const Variable& x) { return sum_squares(repeat_batch(x, 3)); },
      smooth_random(Shape::nchw(2, 2, 3, 3), 42));
}

TEST(GradCheck, DctLowpass) {
  expect_gradcheck([](const Variable& x) { return sum_squares(dct_lowpass(x, 3)); },
                   smooth_random(Shape::nchw(1, 1, 6, 6), 36));
}

TEST(GradCheck, NpsLoss) {
  Tensor palette(Shape::mat(3, 3),
                 {0.05f, 0.05f, 0.05f, 0.95f, 0.95f, 0.95f, 0.8f, 0.1f, 0.1f});
  // Keep pixel values away from exact palette colours (abs kinks).
  util::Rng rng(37);
  Tensor x0 = Tensor::rand_uniform(Shape::nchw(1, 3, 3, 3), rng, 0.3f, 0.7f);
  expect_gradcheck([&palette](const Variable& x) { return nps_loss(x, palette); }, x0,
                   /*tolerance=*/8e-2);
}

TEST(GradCheck, BroadcastBatch) {
  expect_gradcheck(
      [](const Variable& x) { return sum_squares(broadcast_batch(x, 4)); },
      smooth_random(Shape::nchw(1, 2, 3, 3), 38));
}

TEST(GradCheck, ComposedNetworkSlice) {
  // conv -> relu -> depthwise -> flatten -> dense -> CE: an end-to-end slice
  // of the real classifier graph, checked w.r.t. the *input* (the gradient
  // the RP2 attack consumes).
  util::Rng rng(39);
  const Tensor conv_w = Tensor::randn(Shape{2, 1, 3, 3}, rng, 0.0f, 0.4f);
  const Tensor conv_b = Tensor::randn(Shape::vec(2), rng, 0.0f, 0.2f);
  const Tensor dw_w = Tensor::randn(Shape{2, 3, 3}, rng, 0.0f, 0.3f);
  const Tensor fc_w = Tensor::randn(Shape::mat(2 * 25, 3), rng, 0.0f, 0.3f);
  const Tensor fc_b = Tensor::randn(Shape::vec(3), rng, 0.0f, 0.2f);
  const std::vector<int> labels = {1};
  expect_gradcheck(
      [&](const Variable& x) {
        auto h = relu(conv2d(x, Variable::constant(conv_w), Variable::constant(conv_b), 1, 1));
        h = depthwise_conv2d_same(h, Variable::constant(dw_w), Variable());
        auto logits = dense(flatten2d(h), Variable::constant(fc_w), Variable::constant(fc_b));
        return softmax_cross_entropy(logits, labels);
      },
      smooth_random(Shape::nchw(1, 1, 5, 5), 40), /*tolerance=*/8e-2);
}

}  // namespace
}  // namespace blurnet::autograd
