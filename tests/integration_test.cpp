// End-to-end integration tests: the full train -> attack -> defend -> evaluate
// pipeline at miniature scale, exercising the same code paths as the bench
// binaries.
#include <gtest/gtest.h>

#include <filesystem>
#include <utility>

#include "src/defense/blurnet.h"
#include "src/eval/harness.h"
#include "src/signal/spectrum.h"
#include "tests/test_helpers.h"

namespace blurnet {
namespace {

using blurnet::testing::tiny_dataset;
using blurnet::testing::tiny_model_config;
using blurnet::testing::tiny_trained_model;

TEST(Integration, TrainAttackEvaluateRoundTrip) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(4);
  const auto sticker = attack::sticker_mask(stop_set.masks);

  attack::Rp2Config rp2;
  rp2.iterations = 30;
  rp2.target_class = 5;
  const auto result = attack::rp2_attack(model, stop_set.images, sticker, rp2);

  // The pipeline invariants that every bench relies on.
  EXPECT_EQ(result.adversarial.shape(), stop_set.images.shape());
  EXPECT_EQ(result.clean_pred.size(), 4u);
  EXPECT_EQ(result.adv_pred.size(), 4u);
  EXPECT_GE(result.l2_dissimilarity(stop_set.images), 0.0);
  EXPECT_LE(result.success_rate_altered(), 1.0);
}

TEST(Integration, FixedFilterWrapKeepsWeightsAndChangesFunction) {
  const auto& baseline = tiny_trained_model();
  nn::LisaCnnConfig config = baseline.config();
  config.fixed_filter = {nn::FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox};
  nn::LisaCnn filtered(config);
  filtered.copy_weights_from(baseline);

  // Same conv1 weights...
  const auto base_params = baseline.named_parameters();
  const auto filt_params = filtered.named_parameters();
  for (std::size_t i = 0; i < base_params.size(); ++i) {
    ASSERT_EQ(base_params[i].first, filt_params[i].first);
    for (std::int64_t j = 0; j < base_params[i].second.value().numel(); ++j) {
      ASSERT_FLOAT_EQ(base_params[i].second.value()[j], filt_params[i].second.value()[j]);
    }
  }
  // ...different function.
  const auto& test = tiny_dataset().test;
  const auto base_preds = baseline.predict(test.images);
  const auto filt_preds = filtered.predict(test.images);
  int differing = 0;
  for (std::size_t i = 0; i < base_preds.size(); ++i) {
    if (base_preds[i] != filt_preds[i]) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Integration, BlurredModelFeaturesAreSmoother) {
  // The architectural mechanism end-to-end: the filtered model's effective
  // L1 representation carries less high-frequency energy.
  const auto& baseline = tiny_trained_model();
  nn::LisaCnnConfig config = baseline.config();
  config.fixed_filter = {nn::FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox};
  nn::LisaCnn filtered(config);
  filtered.copy_weights_from(baseline);

  const auto stop_set = data::stop_sign_eval_set(2);
  const auto input = autograd::Variable::constant(stop_set.images);
  const auto raw = baseline.forward(input).features_l1_filtered.value();
  const auto blurred = filtered.forward(input).features_l1_filtered.value();
  const int h = static_cast<int>(raw.dim(2)), w = static_cast<int>(raw.dim(3));
  double hf_raw = 0, hf_blur = 0;
  for (std::int64_t c = 0; c < raw.dim(1); ++c) {
    hf_raw += signal::high_frequency_energy_ratio(signal::extract_plane(raw, 0, c), h, w);
    hf_blur += signal::high_frequency_energy_ratio(signal::extract_plane(blurred, 0, c), h, w);
  }
  EXPECT_LT(hf_blur, hf_raw);
}

TEST(Integration, WhiteboxSweepOnDefendedAndBaseline) {
  // Run the Table II protocol at miniature scale on baseline + one defended
  // model; verifies the full protocol path (not the paper's numbers).
  const auto& baseline = tiny_trained_model();
  nn::LisaCnn defended(tiny_model_config());
  defense::TrainConfig train_config;
  train_config.epochs = 4;
  train_config.regularizer = defense::RegularizerSpec::tv(3e-5);
  defense::train_classifier(defended, tiny_dataset().train, tiny_dataset().test, train_config);

  eval::ExperimentScale scale;
  scale.eval_images = 3;
  scale.num_targets = 2;
  scale.rp2_iterations = 15;
  const auto stop_set = data::stop_sign_eval_set(scale.eval_images);

  eval::Harness harness(baseline);
  harness.adopt_variant(serve::kBaseVariant);
  serve::VariantSpec defended_tv;
  defended_tv.model = &defended;
  harness.add_victim("defended-tv", std::move(defended_tv));
  const eval::WhiteboxSweep protocol{scale};
  const auto base_sweep = protocol.run(harness, serve::kBaseVariant, 0.9, stop_set);
  const auto defended_sweep = protocol.run(harness, "defended-tv", 0.9, stop_set);
  EXPECT_GE(base_sweep.worst_success, base_sweep.average_success);
  EXPECT_GE(defended_sweep.worst_success, defended_sweep.average_success);
  // Every evaluation forward pass went through the engine.
  EXPECT_GT(harness.images_served(serve::kBaseVariant), 0);
  EXPECT_GT(harness.images_served("defended-tv"), 0);
}

TEST(Integration, AdaptiveAttackPathEndToEnd) {
  const auto& model = tiny_trained_model();
  eval::ExperimentScale scale;
  scale.eval_images = 2;
  scale.num_targets = 1;
  scale.rp2_iterations = 8;
  const auto stop_set = data::stop_sign_eval_set(scale.eval_images);
  eval::Harness harness(model);
  harness.adopt_variant(serve::kBaseVariant);
  const auto sweep = eval::WhiteboxSweep{scale, attack::low_frequency_adapter(8)}.run(
      harness, serve::kBaseVariant, 1.0, stop_set);
  EXPECT_EQ(sweep.per_target.size(), 1u);
}

TEST(Integration, SmoothedPredictorPluggedIntoSweep) {
  const auto& model = tiny_trained_model();
  eval::ExperimentScale scale;
  scale.eval_images = 2;
  scale.num_targets = 1;
  scale.rp2_iterations = 5;
  const auto stop_set = data::stop_sign_eval_set(scale.eval_images);
  defense::SmoothingConfig smoothing;
  smoothing.sigma = 0.05;
  smoothing.samples = 8;
  eval::Harness harness(model);
  eval::VictimSpec spec;
  spec.smoothing = smoothing;
  serve::VariantSpec variant;
  variant.model = &model;
  harness.add_victim("smoothed", std::move(variant), spec);
  const auto sweep =
      eval::WhiteboxSweep{scale}.run(harness, "smoothed", 1.0, stop_set);
  EXPECT_LE(sweep.worst_success, 1.0);
  // The smoothed victim's predictions are the same majority vote the raw
  // model computes — the Monte-Carlo noise depends only on the config seed
  // and every engine replica is a bitwise-identical clone.
  const auto via_engine = harness.predict("smoothed", stop_set.images);
  const auto via_model = defense::smoothed_predict(model, stop_set.images, smoothing);
  EXPECT_EQ(via_engine, via_model);
}

TEST(Integration, ModelCheckpointsSurviveArchitectureWrap) {
  // Save a trained model, load it into a filtered architecture, verify the
  // shared weights drive both (Table I's plumbing).
  const auto& baseline = tiny_trained_model();
  const auto path =
      (std::filesystem::temp_directory_path() / "blurnet_integration_ckpt.bin").string();
  baseline.save(path);

  nn::LisaCnnConfig config = baseline.config();
  config.fixed_filter = {nn::FilterPlacement::kInput, 3, signal::KernelKind::kBox};
  nn::LisaCnn wrapped(config);
  wrapped.load(path);

  util::Rng rng(9);
  const auto probe = tensor::Tensor::randn(tensor::Shape::nchw(1, 3, 32, 32), rng);
  // With a 1-pixel-identity-ish blur the functions differ, but both must be
  // finite and produce valid class indices.
  const auto pred = wrapped.predict(probe);
  ASSERT_EQ(pred.size(), 1u);
  EXPECT_GE(pred[0], 0);
  EXPECT_LT(pred[0], 18);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace blurnet
