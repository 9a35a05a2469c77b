#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>

#include "src/defense/input_transform.h"
#include "src/nn/init.h"
#include "src/nn/lisa_cnn.h"
#include "src/nn/model_io.h"
#include "src/nn/optim.h"
#include "src/tensor/ops.h"
#include "src/util/cpu_caps.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace blurnet::nn {
namespace {

using autograd::Variable;
using tensor::Shape;
using tensor::Tensor;

LisaCnnConfig tiny_config() {
  LisaCnnConfig config;
  config.conv1_filters = 4;
  config.conv2_filters = 6;
  config.conv3_filters = 8;
  return config;
}

TEST(Init, HeNormalVariance) {
  util::Rng rng(1);
  const Tensor w = he_normal(Shape::vec(20000), 50, rng);
  double sum_sq = 0;
  for (std::int64_t i = 0; i < w.numel(); ++i) sum_sq += static_cast<double>(w[i]) * w[i];
  EXPECT_NEAR(sum_sq / static_cast<double>(w.numel()), 2.0 / 50.0, 0.005);
}

TEST(Init, XavierUniformBounds) {
  util::Rng rng(2);
  const Tensor w = xavier_uniform(Shape::vec(1000), 30, 70, rng);
  const double bound = std::sqrt(6.0 / 100.0);
  EXPECT_LE(w.max(), bound);
  EXPECT_GE(w.min(), -bound);
}

TEST(Init, IdentityDepthwiseCentreTap) {
  util::Rng rng(3);
  const Tensor w = identity_depthwise(3, 5, 0.0, rng);
  EXPECT_EQ(w.shape(), (Shape{3, 5, 5}));
  for (int c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(w[(c * 5 + 2) * 5 + 2], 1.0f);
    EXPECT_FLOAT_EQ(w[(c * 5 + 0) * 5 + 0], 0.0f);
  }
}

TEST(LisaCnn, ForwardShapes) {
  const LisaCnn model(tiny_config());
  util::Rng rng(4);
  const auto x = Variable::constant(Tensor::randn(Shape::nchw(2, 3, 32, 32), rng));
  const auto out = model.forward(x);
  EXPECT_EQ(out.logits.shape(), Shape::mat(2, 18));
  EXPECT_EQ(out.features_l1.shape(), Shape::nchw(2, 4, 32, 32));
  EXPECT_EQ(out.features_l2.shape(), Shape::nchw(2, 6, 16, 16));
  EXPECT_EQ(out.features_l3.shape(), Shape::nchw(2, 8, 8, 8));
}

TEST(LisaCnn, DeterministicInit) {
  const LisaCnn a(tiny_config());
  const LisaCnn b(tiny_config());
  util::Rng rng(5);
  const auto x = Tensor::randn(Shape::nchw(1, 3, 32, 32), rng);
  const auto la = a.logits(x);
  const auto lb = b.logits(x);
  for (std::int64_t i = 0; i < la.numel(); ++i) EXPECT_FLOAT_EQ(la[i], lb[i]);
}

TEST(LisaCnn, ParameterInventory) {
  LisaCnnConfig config = tiny_config();
  const LisaCnn plain(config);
  EXPECT_EQ(plain.parameters().size(), 8u);
  EXPECT_FALSE(plain.depthwise_weights().defined());

  config.learnable_depthwise_kernel = 3;
  const LisaCnn with_dw(config);
  EXPECT_EQ(with_dw.parameters().size(), 9u);
  EXPECT_TRUE(with_dw.depthwise_weights().defined());
  EXPECT_EQ(with_dw.depthwise_weights().shape(), (Shape{4, 3, 3}));
}

TEST(LisaCnn, CloneIsDeepAndBitwise) {
  LisaCnn original(tiny_config());
  const LisaCnn copy = original.clone();
  util::Rng rng(13);
  const auto x = Tensor::randn(Shape::nchw(2, 3, 32, 32), rng);
  const auto la = original.logits(x);
  const auto lb = copy.logits(x);
  for (std::int64_t i = 0; i < la.numel(); ++i) EXPECT_EQ(la[i], lb[i]);

  // Deep: mutating the original's weights must not move the clone.
  auto params = original.parameters();
  params[0].mutable_value() = tensor::mul_scalar(params[0].value(), 2.0f);
  const auto after = copy.logits(x);
  for (std::int64_t i = 0; i < lb.numel(); ++i) EXPECT_EQ(after[i], lb[i]);
}

TEST(LisaCnn, CloneWithConfigTransfersWeightsIntoFilteredArchitecture) {
  LisaCnnConfig config = tiny_config();
  const LisaCnn base(config);
  config.fixed_filter = {FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox};
  const LisaCnn transferred = base.clone_with_config(config);
  EXPECT_EQ(transferred.config().fixed_filter.kernel, 5);
  // Identical to the manual copy_weights_from transfer (Table I protocol).
  LisaCnn manual(config);
  manual.copy_weights_from(base);
  util::Rng rng(14);
  const auto x = Tensor::randn(Shape::nchw(1, 3, 32, 32), rng);
  const auto la = transferred.logits(x);
  const auto lb = manual.logits(x);
  for (std::int64_t i = 0; i < la.numel(); ++i) EXPECT_EQ(la[i], lb[i]);
}

TEST(LisaCnn, FixedFilterChangesOutputs) {
  LisaCnnConfig config = tiny_config();
  const LisaCnn base(config);
  config.fixed_filter = {FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox};
  LisaCnn filtered(config);
  filtered.copy_weights_from(base);
  util::Rng rng(6);
  const auto x = Tensor::randn(Shape::nchw(1, 3, 32, 32), rng);
  const auto la = base.logits(x);
  const auto lb = filtered.logits(x);
  double diff = 0;
  for (std::int64_t i = 0; i < la.numel(); ++i) diff += std::fabs(la[i] - lb[i]);
  EXPECT_GT(diff, 1e-3);
}

TEST(LisaCnn, FilteredFeaturesExposeFilterEffect) {
  LisaCnnConfig config = tiny_config();
  config.fixed_filter = {FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox};
  const LisaCnn model(config);
  util::Rng rng(7);
  const auto x = Variable::constant(Tensor::randn(Shape::nchw(1, 3, 32, 32), rng));
  const auto out = model.forward(x);
  // Raw and filtered L1 maps must differ (the blur is between them).
  double diff = 0;
  for (std::int64_t i = 0; i < out.features_l1.value().numel(); ++i) {
    diff += std::fabs(out.features_l1.value()[i] - out.features_l1_filtered.value()[i]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(LisaCnn, InvalidFixedFilterThrows) {
  LisaCnnConfig config = tiny_config();
  config.fixed_filter = {FilterPlacement::kInput, 4, signal::KernelKind::kBox};
  EXPECT_THROW(LisaCnn{config}, std::invalid_argument);
}

TEST(LisaCnn, SaveLoadRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "blurnet_model_test.bin").string();
  const LisaCnn original(tiny_config());
  original.save(path);
  LisaCnnConfig config = tiny_config();
  config.init_seed = 999;  // different init; load must overwrite
  LisaCnn restored(config);
  restored.load(path);
  util::Rng rng(8);
  const auto x = Tensor::randn(Shape::nchw(1, 3, 32, 32), rng);
  const auto la = original.logits(x);
  const auto lb = restored.logits(x);
  for (std::int64_t i = 0; i < la.numel(); ++i) EXPECT_FLOAT_EQ(la[i], lb[i]);
  std::filesystem::remove(path);
}

TEST(LisaCnn, LoadMissingParameterThrows) {
  const auto path =
      (std::filesystem::temp_directory_path() / "blurnet_model_partial.bin").string();
  const LisaCnn plain(tiny_config());
  plain.save(path);
  LisaCnnConfig config = tiny_config();
  config.learnable_depthwise_kernel = 3;  // has depthwise.w, file does not
  LisaCnn with_dw(config);
  EXPECT_THROW(with_dw.load(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(LisaCnn, PredictMatchesArgmaxOfLogits) {
  const LisaCnn model(tiny_config());
  util::Rng rng(9);
  const auto x = Tensor::randn(Shape::nchw(3, 3, 32, 32), rng);
  const auto logits = model.logits(x);
  const auto preds = model.predict(x);
  for (std::int64_t i = 0; i < 3; ++i) {
    int best = 0;
    for (std::int64_t j = 1; j < 18; ++j) {
      if (logits.at2(i, j) > logits.at2(i, best)) best = static_cast<int>(j);
    }
    EXPECT_EQ(preds[static_cast<std::size_t>(i)], best);
  }
}

// The served forward (LisaCnn::logits: no graph, implicit-GEMM convs, the
// scratch blur, the row-kernel dense head at batch 1) must be the graph
// forward's exact float program on the defended paper-width model.
TEST(LisaCnn, DefendedPaperWidthLogitsBitwiseEqualGraphForward) {
  LisaCnnConfig config;  // paper width: 16/32/64 filters
  config.fixed_filter = {FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox};
  const LisaCnn model(config);
  util::Rng rng(31);
  for (const std::int64_t batch : {1, 64}) {
    const Tensor x = Tensor::rand_uniform(Shape::nchw(batch, 3, 32, 32), rng);
    const Tensor served = model.logits(x);
    const Variable graph = model.forward(Variable::constant(x)).logits;
    ASSERT_TRUE(graph.requires_grad());  // really the graph path
    ASSERT_EQ(served.shape(), graph.value().shape());
    EXPECT_EQ(std::memcmp(served.data(), graph.value().data(),
                          static_cast<std::size_t>(served.numel()) * sizeof(float)),
              0)
        << "batch " << batch;
  }
}

// The avx512 target's contract: its logits are the avx2 target's bit for
// bit, for the base and defended paper-width models and behind the median5
// input transform, at every batch size and worker count.
TEST(LisaCnn, Avx512LogitsBitwiseEqualAvx2) {
  if (!util::kernel_target_available(util::KernelTarget::kAvx512)) {
    GTEST_SKIP() << "host lacks AVX-512 F/VL with OS-enabled ZMM state (or the "
                    "binary was built without the avx512 kernels)";
  }
  LisaCnnConfig defended_config;  // paper width: 16/32/64 filters
  defended_config.fixed_filter = {FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox};
  const LisaCnn base{LisaCnnConfig{}};
  const LisaCnn defended = base.clone_with_config(defended_config);
  defense::TransformSpec median5_spec;
  median5_spec.kind = defense::TransformKind::kMedian;
  median5_spec.kernel = 5;
  const defense::TransformPtr median5 = defense::make_transform(median5_spec);
  struct Variant {
    const char* name;
    const LisaCnn& model;
    bool median5;
  };
  const Variant variants[] = {{"base", base, false},
                              {"defended", defended, false},
                              {"median5", base, true}};
  util::Rng rng(37);
  for (const std::int64_t batch : {1, 3, 64}) {
    const Tensor x = Tensor::rand_uniform(Shape::nchw(batch, 3, 32, 32), rng);
    for (const Variant& v : variants) {
      for (const int workers : {1, 4}) {
        util::set_parallel_workers(workers);
        auto logits = [&](util::KernelTarget target) {
          util::set_kernel_target(target);
          Tensor out = v.model.logits(v.median5 ? median5->apply(x) : x);
          util::reset_kernel_target();
          return out;
        };
        const Tensor wide = logits(util::KernelTarget::kAvx512);
        const Tensor narrow = logits(util::KernelTarget::kAvx2);
        ASSERT_EQ(wide.shape(), narrow.shape());
        EXPECT_EQ(std::memcmp(wide.data(), narrow.data(),
                              static_cast<std::size_t>(wide.numel()) * sizeof(float)),
                  0)
            << v.name << " batch " << batch << " workers " << workers;
      }
      util::reset_parallel_workers();
    }
  }
}

// Optimizers minimize a simple convex quadratic sum((x - t)^2).
class OptimizerConvergence : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerConvergence, ReachesTarget) {
  const Tensor target = Tensor::from_vector({1.0f, -2.0f, 0.5f});
  auto x = Variable::leaf(Tensor::zeros(Shape::vec(3)));
  std::unique_ptr<Optimizer> optimizer;
  if (GetParam() == "sgd") {
    optimizer = std::make_unique<Sgd>(std::vector<Variable>{x}, 0.1);
  } else if (GetParam() == "sgd_momentum") {
    optimizer = std::make_unique<Sgd>(std::vector<Variable>{x}, 0.05, 0.9);
  } else {
    optimizer = std::make_unique<Adam>(std::vector<Variable>{x}, 0.1);
  }
  for (int step = 0; step < 300; ++step) {
    auto diff = autograd::sub(x, Variable::constant(target));
    auto loss = autograd::sum_squares(diff);
    optimizer->zero_grad();
    autograd::backward(loss);
    optimizer->step();
  }
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_NEAR(x.value()[i], target[i], 0.05);
}

INSTANTIATE_TEST_SUITE_P(Kinds, OptimizerConvergence,
                         ::testing::Values("sgd", "sgd_momentum", "adam"));

TEST(Adam, ResetStateClearsMoments) {
  auto x = Variable::leaf(Tensor::from_vector({5.0f}));
  Adam adam({x}, 0.5);
  auto loss = autograd::sum_squares(x);
  autograd::backward(loss);
  adam.step();
  const float after_one = x.value()[0];
  adam.reset_state();
  adam.zero_grad();
  auto loss2 = autograd::sum_squares(x);
  autograd::backward(loss2);
  adam.step();
  // After reset the first-step bias correction applies again: the update is
  // lr-sized, same magnitude behaviour as a fresh optimizer.
  EXPECT_LT(x.value()[0], after_one);
}

TEST(ModelIo, SaveLoadNamedParameters) {
  const auto path =
      (std::filesystem::temp_directory_path() / "blurnet_params_test.bin").string();
  util::Rng rng(10);
  auto w = Variable::leaf(Tensor::randn(Shape::mat(3, 3), rng));
  std::vector<std::pair<std::string, Variable>> params = {{"w", w}};
  save_parameters(path, params);

  auto w2 = Variable::leaf(Tensor::zeros(Shape::mat(3, 3)));
  std::vector<std::pair<std::string, Variable>> loaded = {{"w", w2}};
  load_parameters(path, loaded);
  for (std::int64_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(w2.value()[i], w.value()[i]);
  std::filesystem::remove(path);
}

TEST(ModelIo, ShapeMismatchThrows) {
  const auto path =
      (std::filesystem::temp_directory_path() / "blurnet_params_mismatch.bin").string();
  auto w = Variable::leaf(Tensor::zeros(Shape::mat(2, 2)));
  std::vector<std::pair<std::string, Variable>> params = {{"w", w}};
  save_parameters(path, params);
  auto wrong = Variable::leaf(Tensor::zeros(Shape::mat(3, 3)));
  std::vector<std::pair<std::string, Variable>> loaded = {{"w", wrong}};
  EXPECT_THROW(load_parameters(path, loaded), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace blurnet::nn
