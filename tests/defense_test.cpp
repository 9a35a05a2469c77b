#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "src/autograd/ops.h"
#include "src/defense/input_transform.h"
#include "src/defense/model_zoo.h"
#include "src/defense/randomized_smoothing.h"
#include "src/defense/regularizers.h"
#include "src/defense/trainer.h"
#include "src/signal/kernels.h"
#include "src/signal/spectrum.h"
#include "tests/test_helpers.h"

namespace blurnet::defense {
namespace {

using autograd::Variable;
using blurnet::testing::tiny_dataset;
using blurnet::testing::tiny_model_config;
using blurnet::testing::tiny_trained_model;
using tensor::Shape;
using tensor::Tensor;

TEST(Regularizers, TikHfOperatorAnnihilatesConstants) {
  const Tensor l = tik_hf_operator(8);
  EXPECT_EQ(l.shape(), Shape::mat(8, 8));
  for (int r = 0; r < 8; ++r) {
    double row_sum = 0;
    for (int c = 0; c < 8; ++c) row_sum += l.at2(r, c);
    EXPECT_NEAR(row_sum, 0.0, 1e-6);  // (I - L_avg) rows sum to zero
  }
}

TEST(Regularizers, TikPseudoOperatorShape) {
  const Tensor p = tik_pseudo_operator(8, 12);
  EXPECT_EQ(p.shape(), Shape::mat(8, 12));
  EXPECT_GT(p.abs_max(), 0.0f);
}

TEST(Regularizers, TermValuesAndKinds) {
  const auto& model = tiny_trained_model();
  const auto& lisa = tiny_dataset();
  const auto forward = model.forward(Variable::constant(lisa.test.images.reshape(
      lisa.test.images.shape())));
  for (const auto spec :
       {RegularizerSpec::tv(1e-3), RegularizerSpec::tik_hf(1e-3), RegularizerSpec::tik_pseudo(1e-3)}) {
    const auto term = regularization_term(spec, model, forward);
    ASSERT_TRUE(term.defined());
    EXPECT_GE(term.scalar_value(), 0.0f);
    EXPECT_GT(term.scalar_value(), 0.0f);
  }
  EXPECT_FALSE(regularization_term(RegularizerSpec::none(), model, forward).defined());
}

TEST(Regularizers, LinfRequiresDepthwiseLayer) {
  const auto& model = tiny_trained_model();
  const auto& lisa = tiny_dataset();
  const auto forward = model.forward(Variable::constant(lisa.test.images));
  EXPECT_THROW(regularization_term(RegularizerSpec::linf(0.1), model, forward),
               std::logic_error);
}

TEST(Regularizers, NormalizationIsScaleInvariant) {
  // Scaling the features must not change the normalized TV term (that is the
  // point of normalization: the network cannot cheat by shrinking amplitude).
  const auto& model = tiny_trained_model();
  const auto& lisa = tiny_dataset();
  auto forward = model.forward(Variable::constant(lisa.test.images));
  const auto spec = RegularizerSpec::tv(1.0);
  const float value = regularization_term(spec, model, forward).scalar_value();

  nn::ForwardResult scaled = forward;
  scaled.features_l1 = autograd::mul_scalar(forward.features_l1, 0.25f);
  const float scaled_value = regularization_term(spec, model, scaled).scalar_value();
  EXPECT_NEAR(value, scaled_value, 0.05f * std::max(1.0f, value));

  // Without normalization the term scales linearly.
  RegularizerSpec raw = spec;
  raw.normalize = false;
  const float raw_value = regularization_term(raw, model, forward).scalar_value();
  const float raw_scaled = regularization_term(raw, model, scaled).scalar_value();
  EXPECT_NEAR(raw_scaled, 0.25f * raw_value, 0.02f * raw_value);
}

TEST(Regularizers, ToStringNames) {
  EXPECT_EQ(to_string(RegularizerKind::kTv), "tv");
  EXPECT_EQ(to_string(RegularizerKind::kTikHf), "tik_hf");
  EXPECT_EQ(to_string(RegularizerKind::kNone), "none");
}

TEST(Trainer, LearnsAboveChance) {
  nn::LisaCnn model(tiny_model_config());
  TrainConfig config;
  config.epochs = 14;
  config.batch_size = 16;
  const auto stats = train_classifier(model, tiny_dataset().train, tiny_dataset().test, config);
  EXPECT_EQ(stats.epochs_run, 14);
  EXPECT_GT(stats.test_accuracy, 3.0 / 18.0);  // well above chance
  EXPECT_LT(stats.final_train_loss, 2.5);
}

TEST(Trainer, TvRegularizationReducesFeatureTv) {
  // Train with and without the (normalized) TV penalty: the TV-per-activation
  // of the first-layer maps must come out lower for the regularized model.
  nn::LisaCnn plain(tiny_model_config());
  nn::LisaCnn regularized(tiny_model_config());
  TrainConfig config;
  config.epochs = 12;
  config.batch_size = 16;
  train_classifier(plain, tiny_dataset().train, tiny_dataset().test, config);
  config.regularizer = RegularizerSpec::tv(3e-3);
  train_classifier(regularized, tiny_dataset().train, tiny_dataset().test, config);

  auto normalized_tv = [&](const nn::LisaCnn& model) {
    const auto forward = model.forward(Variable::constant(tiny_dataset().test.images));
    const auto& f = forward.features_l1.value();
    double scale = 0;
    for (std::int64_t i = 0; i < f.numel(); ++i) scale += std::fabs(f[i]);
    scale /= static_cast<double>(f.numel());
    return autograd::tv_loss(forward.features_l1).scalar_value() / (scale + 1e-9);
  };
  EXPECT_LT(normalized_tv(regularized), normalized_tv(plain));
}

TEST(Trainer, GaussianAugmentationRunsAndLearns) {
  nn::LisaCnn model(tiny_model_config());
  TrainConfig config;
  config.epochs = 12;
  config.batch_size = 16;
  config.gaussian_sigma = 0.1;
  const auto stats = train_classifier(model, tiny_dataset().train, tiny_dataset().test, config);
  EXPECT_GT(stats.test_accuracy, 3.0 / 18.0);
}

TEST(Trainer, AdversarialTrainingRunsAndLearns) {
  nn::LisaCnn model(tiny_model_config());
  TrainConfig config;
  config.epochs = 8;
  config.batch_size = 16;
  config.adversarial = true;
  config.adversarial_pgd.steps = 3;
  const auto stats = train_classifier(model, tiny_dataset().train, tiny_dataset().test, config);
  EXPECT_GT(stats.test_accuracy, 2.0 / 18.0);
}

TEST(Trainer, AccuracyHelperMatchesManualCount) {
  const auto& model = tiny_trained_model();
  const auto& test = tiny_dataset().test;
  const double accuracy = classifier_accuracy(model, test, 16);
  const auto preds = model.predict(test.images);
  int correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == test.labels[i]) ++correct;
  }
  EXPECT_NEAR(accuracy, static_cast<double>(correct) / static_cast<double>(preds.size()),
              1e-9);
}

TEST(Smoothing, CleanAccuracyCloseToBase) {
  const auto& model = tiny_trained_model();
  const auto& test = tiny_dataset().test;
  SmoothingConfig config;
  config.sigma = 0.05;
  config.samples = 20;
  const double smoothed = smoothed_accuracy(model, test.images, test.labels, config);
  const double plain = classifier_accuracy(model, test);
  EXPECT_NEAR(smoothed, plain, 0.25);
}

TEST(Smoothing, DeterministicGivenSeed) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(3);
  SmoothingConfig config;
  config.samples = 10;
  const auto a = smoothed_predict(model, stop_set.images, config);
  const auto b = smoothed_predict(model, stop_set.images, config);
  EXPECT_EQ(a, b);
}

TEST(Smoothing, HighNoiseDegradesGracefully) {
  const auto& model = tiny_trained_model();
  const auto& test = tiny_dataset().test;
  SmoothingConfig config;
  config.sigma = 1.5;  // absurd noise: accuracy should fall toward chance
  config.samples = 10;
  const double smoothed = smoothed_accuracy(model, test.images, test.labels, config);
  EXPECT_LT(smoothed, classifier_accuracy(model, test));
}

TEST(FixedBlur, ReducesFeatureHighFrequency) {
  // The architectural defense claim at unit scale: blurring L1 maps cuts
  // their high-frequency energy.
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(1);
  const auto maps =
      model.forward(Variable::constant(stop_set.images)).features_l1.value();
  const auto blurred = signal::filter2d_depthwise(maps, signal::make_blur_kernel(5));
  double hf_before = 0, hf_after = 0;
  const int h = static_cast<int>(maps.dim(2)), w = static_cast<int>(maps.dim(3));
  for (std::int64_t c = 0; c < maps.dim(1); ++c) {
    hf_before += signal::high_frequency_energy_ratio(signal::extract_plane(maps, 0, c), h, w);
    hf_after +=
        signal::high_frequency_energy_ratio(signal::extract_plane(blurred, 0, c), h, w);
  }
  EXPECT_LT(hf_after, hf_before);
}

TEST(InputTransform, SqueezeIsIdempotentAndQuantizesToLevels) {
  util::Rng rng(3);
  const Tensor x = Tensor::rand_uniform(Shape::nchw(2, 3, 8, 8), rng);
  for (const int bits : {1, 3, 5}) {
    const Tensor once = bit_depth_squeeze(x, bits);
    const Tensor twice = bit_depth_squeeze(once, bits);
    const float levels = static_cast<float>((1 << bits) - 1);
    for (std::int64_t i = 0; i < once.numel(); ++i) {
      // Idempotent: a squeezed image is a fixed point, bitwise.
      ASSERT_EQ(once[i], twice[i]) << "bits " << bits << " index " << i;
      // Every value sits exactly on one of the 2^bits quantization levels.
      const float scaled = once[i] * levels;
      ASSERT_EQ(scaled, std::round(scaled)) << "bits " << bits << " index " << i;
      ASSERT_GE(once[i], 0.0f);
      ASSERT_LE(once[i], 1.0f);
    }
  }
  // Out-of-range inputs are clamped before quantization.
  Tensor wild(Shape::nchw(1, 1, 1, 2));
  wild.data()[0] = -0.5f;
  wild.data()[1] = 1.5f;
  const Tensor squeezed = bit_depth_squeeze(wild, 4);
  EXPECT_EQ(squeezed[0], 0.0f);
  EXPECT_EQ(squeezed[1], 1.0f);
}

TEST(InputTransform, MedianKeepsConstantPlanesAndRemovesSalt) {
  // Replicate padding keeps every window an odd sample count of real pixels,
  // so a constant plane is bitwise unchanged right up to the border...
  Tensor flat(Shape::nchw(1, 1, 6, 6));
  for (std::int64_t i = 0; i < flat.numel(); ++i) flat.data()[i] = 0.37f;
  const Tensor filtered = median_filter_nchw(flat, 3);
  for (std::int64_t i = 0; i < filtered.numel(); ++i) EXPECT_EQ(filtered[i], 0.37f);

  // ...and a single salt pixel in the corner — where zero padding would let
  // it survive — is voted out by its replicated neighbours.
  Tensor salt = flat.clone();
  salt.data()[0] = 1.0f;  // corner pixel: 4 of the 9 window samples
  const Tensor cleaned = median_filter_nchw(salt, 3);
  for (std::int64_t i = 0; i < cleaned.numel(); ++i) EXPECT_EQ(cleaned[i], 0.37f);

  // kernel 1 is the identity (bitwise), and even kernels are rejected.
  util::Rng rng(5);
  const Tensor x = Tensor::rand_uniform(Shape::nchw(1, 2, 5, 5), rng);
  const Tensor identity = median_filter_nchw(x, 1);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(identity[i], x[i]);
  EXPECT_THROW(median_filter_nchw(x, 2), std::invalid_argument);
}

// Hand-written reference for median_filter_nchw: replicate-pad by clamping
// each tap's coordinates into the plane, then nth_element over the k*k window.
Tensor median_oracle(const Tensor& x, int k) {
  const std::int64_t planes = x.dim(0) * x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out(x.shape());
  std::vector<float> window;
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* src = x.data() + p * h * w;
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t xx = 0; xx < w; ++xx) {
        window.clear();
        for (int fy = -k / 2; fy <= k / 2; ++fy) {
          for (int fx = -k / 2; fx <= k / 2; ++fx) {
            const std::int64_t sy = std::clamp<std::int64_t>(y + fy, 0, h - 1);
            const std::int64_t sx = std::clamp<std::int64_t>(xx + fx, 0, w - 1);
            window.push_back(src[sy * w + sx]);
          }
        }
        const auto mid = window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2);
        std::nth_element(window.begin(), mid, window.end());
        out.data()[p * h * w + y * w + xx] = *mid;
      }
    }
  }
  return out;
}

// The 3x3/5x5 medians run a sorting network on every target, so agreement
// across targets alone no longer ties them to a median: hold each target to
// the nth_element oracle directly, on a ragged 18x21 batch (partial vector
// tiles, scalar tails) and the paper's 32x32.
TEST(InputTransform, MedianFilterMatchesNthElementOracleOnEveryTarget) {
  util::Rng rng(17);
  for (const Shape& shape : {Shape::nchw(2, 3, 18, 21), Shape::nchw(2, 3, 32, 32)}) {
    const Tensor x = Tensor::rand_uniform(shape, rng);
    for (const int k : {3, 5}) {
      const Tensor expected = median_oracle(x, k);
      for (const auto target : blurnet::testing::available_kernel_targets()) {
        blurnet::testing::ScopedKernelTarget scoped(target);
        const Tensor got = median_filter_nchw(x, k);
        for (std::int64_t i = 0; i < got.numel(); ++i) {
          ASSERT_EQ(got[i], expected[i])
              << "median" << k << " " << shape[2] << "x" << shape[3] << " on "
              << util::kernel_target_name(target) << " elem " << i;
        }
      }
    }
  }
}

TEST(InputTransform, DctQuantRoundTripIsBoundedAndInRange) {
  util::Rng rng(7);
  const Tensor x = Tensor::rand_uniform(Shape::nchw(2, 3, 32, 32), rng);
  const Tensor high = dct_quantize_nchw(x, 95);
  const Tensor low = dct_quantize_nchw(x, 5);
  double high_err = 0, low_err = 0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    ASSERT_GE(high[i], 0.0f);
    ASSERT_LE(high[i], 1.0f);
    ASSERT_GE(low[i], 0.0f);
    ASSERT_LE(low[i], 1.0f);
    high_err = std::max(high_err, static_cast<double>(std::fabs(high[i] - x[i])));
    low_err += std::fabs(low[i] - x[i]);
  }
  // Near-lossless quality keeps every pixel close to the original; harsh
  // quantization must actually compress (change the image substantially).
  EXPECT_LT(high_err, 0.2);
  EXPECT_GT(low_err / static_cast<double>(x.numel()), 1e-3);
}

TEST(InputTransform, ApplyAcceptsChwAndMatchesBatchBitwise) {
  // Per-image semantics: transforming a CHW image alone equals transforming
  // it inside a batch — the engine's batch-split determinism relies on this.
  util::Rng rng(11);
  const Tensor batch = Tensor::rand_uniform(Shape::nchw(3, 3, 16, 16), rng);
  const std::int64_t stride = batch.dim(1) * batch.dim(2) * batch.dim(3);
  for (const auto& spec : standard_transforms()) {
    const InputTransform transform(spec);
    const Tensor whole = transform.apply(batch);
    for (std::int64_t i = 0; i < batch.dim(0); ++i) {
      Tensor image(tensor::Shape{batch.dim(1), batch.dim(2), batch.dim(3)});
      std::copy(batch.data() + i * stride, batch.data() + (i + 1) * stride, image.data());
      const Tensor single = transform.apply(image);
      EXPECT_EQ(single.shape(), image.shape()) << spec.name();
      for (std::int64_t k = 0; k < stride; ++k) {
        ASSERT_EQ(single[k], whole[i * stride + k]) << spec.name() << " image " << i;
      }
    }
  }
}

// The 3x3/5x5 median networks and the table-driven 8x8 DCT are
// kernel-dispatched; both reproduce the scalar paths exactly (every target
// runs the same compare-exchange network, the SIMD DCT keeps the scalar
// fold order), so the transforms must be bitwise identical across every
// available dispatch target.
TEST(KernelDispatch, InputTransformsBitwiseIdenticalAcrossTargets) {
  util::Rng rng(13);
  // 18x21: not a multiple of the 8-wide median vector width or the 8x8 DCT
  // block, so both partial tiles and the scalar tails get exercised.
  const Tensor x = Tensor::rand_uniform(Shape::nchw(2, 3, 18, 21), rng);
  const TransformSpec specs[] = {TransformSpec::median(3), TransformSpec::median(5),
                                 TransformSpec::dct_quant(50),
                                 TransformSpec::dct_quant(95)};
  for (const auto& spec : specs) {
    const InputTransform transform(spec);
    std::vector<float> scalar_out;
    for (const auto target : blurnet::testing::available_kernel_targets()) {
      blurnet::testing::ScopedKernelTarget scoped(target);
      const Tensor out = transform.apply(x);
      if (target == util::KernelTarget::kScalar) {
        scalar_out.assign(out.data(), out.data() + out.numel());
        continue;
      }
      for (std::int64_t i = 0; i < out.numel(); ++i) {
        ASSERT_EQ(out[i], scalar_out[static_cast<std::size_t>(i)])
            << spec.name() << " on " << util::kernel_target_name(target)
            << " elem " << i;
      }
    }
  }
}

TEST(InputTransform, SpecNamesAndValidation) {
  EXPECT_EQ(TransformSpec::none().name(), "none");
  EXPECT_EQ(TransformSpec::squeeze(4).name(), "squeeze4");
  EXPECT_EQ(TransformSpec::median(3).name(), "median3");
  EXPECT_EQ(TransformSpec::dct_quant(50).name(), "dctq50");
  EXPECT_STREQ(to_string(TransformKind::kSqueeze), "squeeze");
  EXPECT_STREQ(to_string(TransformKind::kNone), "none");

  EXPECT_THROW(TransformSpec::squeeze(0).validate(), std::invalid_argument);
  EXPECT_THROW(TransformSpec::squeeze(9).validate(), std::invalid_argument);
  EXPECT_THROW(TransformSpec::median(4).validate(), std::invalid_argument);
  EXPECT_THROW(TransformSpec::median(-1).validate(), std::invalid_argument);
  EXPECT_THROW(TransformSpec::dct_quant(0).validate(), std::invalid_argument);
  EXPECT_THROW(TransformSpec::dct_quant(101).validate(), std::invalid_argument);
  EXPECT_NO_THROW(TransformSpec::none().validate());

  // kNone means "no preprocess stage": the factory hands back no transform at
  // all, so a kNone-registered variant is structurally the bare forward path.
  EXPECT_EQ(make_transform(TransformSpec::none()), nullptr);
  const TransformPtr median = make_transform(TransformSpec::median(5));
  ASSERT_NE(median, nullptr);
  EXPECT_EQ(median->name(), "median5");
  EXPECT_THROW(make_transform(TransformSpec::squeeze(12)), std::invalid_argument);
}

TEST(ModelZoo, TransformVariantsResolveToSpecs) {
  const auto names = ModelZoo::transform_variants();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    EXPECT_EQ(ModelZoo::transform_spec(name).name(), name);
  }
  EXPECT_EQ(ModelZoo::transform_spec("median3").kernel, 3);
  EXPECT_EQ(ModelZoo::transform_spec("squeeze4").bits, 4);
  EXPECT_EQ(ModelZoo::transform_spec("dctq50").quality, 50);
  try {
    ModelZoo::transform_spec("nonsense");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("nonsense"), std::string::npos) << message;
    EXPECT_NE(message.find("median3"), std::string::npos) << message;  // lists the zoo
  }
}

TEST(ModelZoo, SpecsExistForAllVariants) {
  ModelZoo zoo(default_zoo_config());
  for (const auto& name : ModelZoo::known_variants()) {
    EXPECT_NO_THROW(zoo.spec(name)) << name;
  }
  EXPECT_THROW(zoo.spec("nonsense"), std::invalid_argument);
}

TEST(ModelZoo, TrainsCachesAndReloads) {
  const auto cache_dir =
      std::filesystem::temp_directory_path() / "blurnet_zoo_test_cache";
  std::filesystem::remove_all(cache_dir);

  ZooConfig config;
  config.dataset.train_per_class = 6;
  config.dataset.test_per_class = 3;
  config.epochs = 2;
  config.cache_dir = cache_dir.string();

  util::Rng rng(1);
  const auto probe = Tensor::randn(Shape::nchw(1, 3, 32, 32), rng);
  Tensor first_logits;
  {
    ModelZoo zoo(config);
    first_logits = zoo.get("baseline").logits(probe);
    EXPECT_GT(zoo.test_accuracy("baseline"), 1.5 / 18.0);
  }
  // A fresh zoo must load identical weights from the cache (no retraining).
  {
    ModelZoo zoo(config);
    const auto second_logits = zoo.get("baseline").logits(probe);
    for (std::int64_t i = 0; i < first_logits.numel(); ++i) {
      EXPECT_FLOAT_EQ(second_logits[i], first_logits[i]);
    }
  }
  std::filesystem::remove_all(cache_dir);
}

TEST(ModelZoo, EnvironmentScaling) {
  ::setenv("BLURNET_FAST", "1", 1);
  const auto fast = default_zoo_config();
  ::unsetenv("BLURNET_FAST");
  const auto normal = default_zoo_config();
  EXPECT_LT(fast.epochs, normal.epochs);
  EXPECT_LT(fast.dataset.train_per_class, normal.dataset.train_per_class);
}

}  // namespace
}  // namespace blurnet::defense
