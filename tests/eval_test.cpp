#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "src/attack/adaptive.h"
#include "src/attack/masks.h"
#include "src/attack/pgd.h"
#include "src/attack/rp2.h"
#include "src/defense/input_transform.h"
#include "src/eval/harness.h"
#include "src/tensor/ops.h"
#include "tests/test_helpers.h"

namespace blurnet::eval {
namespace {

using blurnet::testing::any_parameter_has_grad;
using blurnet::testing::tiny_trained_model;

serve::VariantSpec transfer_spec(const nn::LisaCnnConfig& config) {
  serve::VariantSpec spec;
  spec.config = config;
  return spec;
}

serve::VariantSpec foreign_spec(const nn::LisaCnn& model) {
  serve::VariantSpec spec;
  spec.model = &model;
  return spec;
}

serve::VariantSpec transform_spec(const defense::TransformSpec& transform) {
  serve::VariantSpec spec;
  spec.transform = defense::make_transform(transform);
  return spec;
}

ExperimentScale tiny_scale() {
  ExperimentScale scale;
  scale.eval_images = 3;
  scale.num_targets = 2;
  scale.rp2_iterations = 8;
  return scale;
}

TEST(Scale, EnvSwitches) {
  ::setenv("BLURNET_FAST", "1", 1);
  const auto fast = ExperimentScale::from_env();
  ::unsetenv("BLURNET_FAST");
  ::setenv("BLURNET_PAPER", "1", 1);
  const auto paper = ExperimentScale::from_env();
  ::unsetenv("BLURNET_PAPER");
  const auto normal = ExperimentScale::from_env();
  EXPECT_LT(fast.eval_images, normal.eval_images);
  EXPECT_EQ(paper.eval_images, 40);
  EXPECT_EQ(paper.num_targets, 17);
  EXPECT_EQ(paper.rp2_iterations, 300);
}

TEST(Scale, TargetClassesExcludeStopAndAreDistinct) {
  for (const int count : {2, 6, 17}) {
    ExperimentScale scale;
    scale.num_targets = count;
    const auto targets = scale.target_classes();
    EXPECT_EQ(static_cast<int>(targets.size()), count);
    std::set<int> unique(targets.begin(), targets.end());
    EXPECT_EQ(unique.size(), targets.size());
    for (const int t : targets) {
      EXPECT_GE(t, 1);
      EXPECT_LE(t, 17);
    }
  }
}

TEST(Scale, TargetCountClampedToAvailable) {
  ExperimentScale scale;
  scale.num_targets = 40;
  EXPECT_EQ(scale.target_classes().size(), 17u);
}

TEST(PaperConfig, MatchesPaperHyperparameters) {
  const auto config = paper_rp2_config(tiny_scale());
  EXPECT_DOUBLE_EQ(config.lambda, 0.002);
  EXPECT_EQ(config.iterations, 8);
  EXPECT_EQ(config.norm, attack::PerturbationNorm::kL2);
  EXPECT_TRUE(config.shared_perturbation);
}

// ---- raw-model reference implementations ------------------------------------
// These replicate the pre-harness evaluation path — every forward pass on the
// raw nn::LisaCnn, no engine — and anchor the bitwise-equivalence tests: the
// engine-backed protocols must reproduce them exactly at any replica count.

SweepResult reference_whitebox(const nn::LisaCnn& model, double legit,
                               const data::StopSignSet& eval_set,
                               const ExperimentScale& scale) {
  const auto craft_set = attacker_craft_set(scale);
  const auto craft_sticker = attack::sticker_mask(craft_set.masks);
  const auto eval_sticker = attack::sticker_mask(eval_set.masks);
  SweepResult result;
  result.legit_accuracy = legit;
  double sum_asr = 0.0, sum_l2 = 0.0;
  const auto targets = scale.target_classes();
  for (const int target : targets) {
    attack::Rp2Config config = paper_rp2_config(scale);
    config.target_class = target;
    config.seed = 1000 + static_cast<std::uint64_t>(target);
    const auto crafted = attack::rp2_attack(model, craft_set.images, craft_sticker, config);
    const auto adversarial =
        attack::apply_shared_sticker(eval_set.images, eval_sticker, crafted.shared_delta);
    const auto clean_pred = model.predict(eval_set.images);
    const auto adv_pred = model.predict(adversarial);
    PerTargetResult per;
    per.target = target;
    int altered = 0, hits = 0;
    for (std::size_t i = 0; i < clean_pred.size(); ++i) {
      if (clean_pred[i] != adv_pred[i]) ++altered;
      if (adv_pred[i] == target) ++hits;
    }
    const double count = static_cast<double>(clean_pred.size());
    per.success_rate = count > 0 ? altered / count : 0.0;
    per.targeted_rate = count > 0 ? hits / count : 0.0;
    per.l2_dissimilarity = tensor::l2_dissimilarity(adversarial, eval_set.images);
    result.per_target.push_back(per);
    sum_asr += per.success_rate;
    sum_l2 += per.l2_dissimilarity;
    result.worst_success = std::max(result.worst_success, per.success_rate);
  }
  if (!targets.empty()) {
    result.average_success = sum_asr / static_cast<double>(targets.size());
    result.mean_l2 = sum_l2 / static_cast<double>(targets.size());
  }
  return result;
}

TransferResult reference_transfer(const nn::LisaCnn& source, const nn::LisaCnn& victim,
                                  const data::StopSignSet& eval_set,
                                  const ExperimentScale& scale) {
  const auto sticker = attack::sticker_mask(eval_set.masks);
  const auto targets = scale.target_classes();
  TransferResult out;
  const auto clean_preds = victim.predict(eval_set.images);
  int correct = 0;
  for (const int p : clean_preds) {
    if (p == data::SignRenderer::stop_class_id()) ++correct;
  }
  out.clean_accuracy =
      clean_preds.empty()
          ? 0.0
          : static_cast<double>(correct) / static_cast<double>(clean_preds.size());
  const auto craft_set = attacker_craft_set(scale);
  const auto craft_sticker = attack::sticker_mask(craft_set.masks);
  double sum_asr = 0.0;
  for (const int target : targets) {
    attack::Rp2Config config = paper_rp2_config(scale);
    config.target_class = target;
    config.seed = 2000 + static_cast<std::uint64_t>(target);
    const auto crafted = attack::rp2_attack(source, craft_set.images, craft_sticker, config);
    const auto adversarial =
        attack::apply_shared_sticker(eval_set.images, sticker, crafted.shared_delta);
    const auto victim_adv = victim.predict(adversarial);
    int altered = 0;
    for (std::size_t i = 0; i < victim_adv.size(); ++i) {
      if (victim_adv[i] != clean_preds[i]) ++altered;
    }
    sum_asr += victim_adv.empty() ? 0.0
                                  : static_cast<double>(altered) /
                                        static_cast<double>(victim_adv.size());
  }
  if (!targets.empty()) out.attack_success = sum_asr / static_cast<double>(targets.size());
  return out;
}

// Transformed-victim reference: the exact sweep protocol, but every forward
// runs on the raw model with the input transform applied inline — crafting
// through a hand-built BPDA handle, predictions through transform->predict.
// The engine-served transform variant must reproduce this bitwise.
SweepResult reference_whitebox_transformed(const nn::LisaCnn& model,
                                           const defense::InputTransform& transform,
                                           double legit, const data::StopSignSet& eval_set,
                                           const ExperimentScale& scale,
                                           const ConfigAdapter& adapt = nullptr) {
  const auto craft_set = attacker_craft_set(scale);
  const auto craft_sticker = attack::sticker_mask(craft_set.masks);
  const auto eval_sticker = attack::sticker_mask(eval_set.masks);
  const auto predict = [&](const tensor::Tensor& images) {
    return model.predict(transform.apply(images));
  };
  const attack::VictimHandle handle(
      model, predict, [&](const tensor::Tensor& images) { return transform.apply(images); });
  SweepResult result;
  result.legit_accuracy = legit;
  double sum_asr = 0.0, sum_l2 = 0.0;
  const auto targets = scale.target_classes();
  for (const int target : targets) {
    attack::Rp2Config config = paper_rp2_config(scale);
    config.target_class = target;
    config.seed = 1000 + static_cast<std::uint64_t>(target);
    if (adapt) config = adapt(config);
    const auto crafted = attack::rp2_attack(handle, craft_set.images, craft_sticker, config);
    const auto adversarial =
        attack::apply_shared_sticker(eval_set.images, eval_sticker, crafted.shared_delta);
    const auto clean_pred = predict(eval_set.images);
    const auto adv_pred = predict(adversarial);
    PerTargetResult per;
    per.target = target;
    int altered = 0, hits = 0;
    for (std::size_t i = 0; i < clean_pred.size(); ++i) {
      if (clean_pred[i] != adv_pred[i]) ++altered;
      if (adv_pred[i] == target) ++hits;
    }
    const double count = static_cast<double>(clean_pred.size());
    per.success_rate = count > 0 ? altered / count : 0.0;
    per.targeted_rate = count > 0 ? hits / count : 0.0;
    per.l2_dissimilarity = tensor::l2_dissimilarity(adversarial, eval_set.images);
    result.per_target.push_back(per);
    sum_asr += per.success_rate;
    sum_l2 += per.l2_dissimilarity;
    result.worst_success = std::max(result.worst_success, per.success_rate);
  }
  if (!targets.empty()) {
    result.average_success = sum_asr / static_cast<double>(targets.size());
    result.mean_l2 = sum_l2 / static_cast<double>(targets.size());
  }
  return result;
}

void expect_sweeps_bitwise_equal(const SweepResult& a, const SweepResult& b,
                                 const std::string& context) {
  EXPECT_EQ(a.legit_accuracy, b.legit_accuracy) << context;
  EXPECT_EQ(a.average_success, b.average_success) << context;
  EXPECT_EQ(a.worst_success, b.worst_success) << context;
  EXPECT_EQ(a.mean_l2, b.mean_l2) << context;
  ASSERT_EQ(a.per_target.size(), b.per_target.size()) << context;
  for (std::size_t i = 0; i < a.per_target.size(); ++i) {
    EXPECT_EQ(a.per_target[i].target, b.per_target[i].target) << context;
    EXPECT_EQ(a.per_target[i].success_rate, b.per_target[i].success_rate) << context;
    EXPECT_EQ(a.per_target[i].targeted_rate, b.per_target[i].targeted_rate) << context;
    EXPECT_EQ(a.per_target[i].l2_dissimilarity, b.per_target[i].l2_dissimilarity) << context;
  }
}

// The acceptance invariant of the engine-backed redesign: the white-box sweep
// run through engine variants is bitwise identical to the raw single-model
// reference at every replica count — sharding the evaluation (and fanning the
// per-target crafting runs across replicas) is purely a throughput decision.
TEST(Harness, WhiteboxSweepBitwiseEqualsRawModelAcrossReplicaCounts) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(3);
  const auto scale = tiny_scale();
  const auto reference = reference_whitebox(model, 0.9, stop_set, scale);

  for (const int replicas : {1, 2, 4}) {
    Harness harness(model, replicas);
    harness.adopt_variant(serve::kBaseVariant);
    const auto sweep =
        WhiteboxSweep{scale}.run(harness, serve::kBaseVariant, 0.9, stop_set);
    expect_sweeps_bitwise_equal(sweep, reference,
                                "replicas " + std::to_string(replicas));
    // Every evaluation forward pass was served by the engine.
    EXPECT_GT(harness.images_served(serve::kBaseVariant), 0)
        << "replicas " << replicas;
  }
}

// Satellite: crafted-on-source stickers evaluated through engine variants
// (apply_shared_sticker + transfer protocol) match the raw-model path
// bitwise, across replica counts {1, 2, 4}.
TEST(Harness, TransferMatrixBitwiseEqualsRawModelAcrossReplicaCounts) {
  const auto& source = tiny_trained_model();
  nn::LisaCnnConfig filtered = source.config();
  filtered.fixed_filter = {nn::FilterPlacement::kAfterLayer1, 3, signal::KernelKind::kBox};
  const nn::LisaCnn victim = source.clone_with_config(filtered);

  const auto stop_set = data::stop_sign_eval_set(3);
  const auto scale = tiny_scale();
  const auto ref_self = reference_transfer(source, source, stop_set, scale);
  const auto ref_filtered = reference_transfer(source, victim, stop_set, scale);

  for (const int replicas : {1, 2, 4}) {
    Harness harness(source, replicas);
    harness.adopt_variant(serve::kBaseVariant);
    harness.add_victim("filtered", transfer_spec(filtered));
    const auto results = TransferMatrix{scale}.run(
        harness, serve::kBaseVariant, {std::string(serve::kBaseVariant), "filtered"},
        stop_set);
    ASSERT_EQ(results.size(), 2u);
    const std::string context = "replicas " + std::to_string(replicas);
    EXPECT_EQ(results[0].clean_accuracy, ref_self.clean_accuracy) << context;
    EXPECT_EQ(results[0].attack_success, ref_self.attack_success) << context;
    EXPECT_EQ(results[1].clean_accuracy, ref_filtered.clean_accuracy) << context;
    EXPECT_EQ(results[1].attack_success, ref_filtered.attack_success) << context;
  }
}

// The cross-victim scheduler invariant: enqueueing several victims' protocols
// on ONE scheduler (so their crafting lanes interleave on the pool) is
// bitwise identical to running each protocol by itself, at every replica
// count — and the per-victim progress counters come back complete. A
// pose-batched scale (eot_poses = 2) keeps the EOT pipeline under the same
// determinism contract.
TEST(Scheduler, MultiVictimRunBitwiseEqualsIndividualRunsAcrossReplicaCounts) {
  const auto& model = tiny_trained_model();
  nn::LisaCnnConfig filtered_config = model.config();
  filtered_config.fixed_filter = {nn::FilterPlacement::kAfterLayer1, 3,
                                  signal::KernelKind::kBox};
  const auto stop_set = data::stop_sign_eval_set(3);
  ExperimentScale scale = tiny_scale();
  scale.eot_poses = 2;
  const auto adapt = attack::low_frequency_adapter(8);

  // Individual protocol runs (single-job schedulers) as the reference.
  Harness reference(model);
  reference.adopt_variant(serve::kBaseVariant);
  reference.add_victim("filtered", transfer_spec(filtered_config));
  const auto ref_sweep =
      WhiteboxSweep{scale}.run(reference, serve::kBaseVariant, 0.9, stop_set);
  const auto ref_adaptive =
      WhiteboxSweep{scale, adapt}.run(reference, "filtered", 0.8, stop_set);
  const auto ref_transfer = TransferMatrix{scale}.run(
      reference, serve::kBaseVariant, {std::string(serve::kBaseVariant), "filtered"},
      stop_set);

  for (const int replicas : {1, 2, 4}) {
    const std::string context = "replicas " + std::to_string(replicas);
    Harness harness(model, replicas);
    harness.adopt_variant(serve::kBaseVariant);
    harness.add_victim("filtered", transfer_spec(filtered_config));

    SweepScheduler scheduler(harness);
    const auto sweep_job =
        scheduler.add(WhiteboxSweep{scale}, serve::kBaseVariant, 0.9, stop_set);
    const auto adaptive_job =
        scheduler.add(WhiteboxSweep{scale, adapt}, "filtered", 0.8, stop_set);
    const auto transfer_job = scheduler.add(
        TransferMatrix{scale}, serve::kBaseVariant,
        {std::string(serve::kBaseVariant), "filtered"}, stop_set);
    EXPECT_EQ(scheduler.job_count(), 3u);
    scheduler.run();

    expect_sweeps_bitwise_equal(scheduler.sweep_result(sweep_job), ref_sweep, context);
    expect_sweeps_bitwise_equal(scheduler.sweep_result(adaptive_job), ref_adaptive,
                                context);
    const auto& transfer = scheduler.transfer_result(transfer_job);
    ASSERT_EQ(transfer.size(), ref_transfer.size()) << context;
    for (std::size_t i = 0; i < transfer.size(); ++i) {
      EXPECT_EQ(transfer[i].clean_accuracy, ref_transfer[i].clean_accuracy) << context;
      EXPECT_EQ(transfer[i].attack_success, ref_transfer[i].attack_success) << context;
    }

    // Progress snapshot: both crafting victims accounted for, all tasks done,
    // lanes bounded by the replica count.
    const auto progress = scheduler.progress();
    ASSERT_EQ(progress.size(), 2u) << context;  // base (sweep+transfer), filtered
    for (const auto& entry : progress) {
      EXPECT_EQ(entry.targets_done, entry.targets_total) << context << " " << entry.victim;
      EXPECT_GT(entry.targets_total, 0) << context << " " << entry.victim;
      EXPECT_GE(entry.lanes, 1) << context << " " << entry.victim;
      EXPECT_LE(entry.lanes, replicas) << context << " " << entry.victim;
      EXPECT_GT(entry.images_served, 0) << context << " " << entry.victim;
    }
    // The base victim carries the white-box sweep AND the transfer crafting.
    EXPECT_EQ(progress[0].victim, serve::kBaseVariant) << context;
    EXPECT_EQ(progress[0].targets_total, 2 * scale.num_targets) << context;
    EXPECT_EQ(progress[1].victim, "filtered") << context;
    EXPECT_EQ(progress[1].targets_total, scale.num_targets) << context;
  }
}

// A victim and its alias share one replica shard, so their crafting lanes
// run concurrently on the same weights. Crafting reads a frozen view and
// writes nothing: both sweeps equal the solo run bitwise and the shard's
// parameter nodes never get a gradient, which two lanes would otherwise
// accumulate into at once.
TEST(Scheduler, AliasVictimsCraftConcurrentlyOnOneShard) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(3);
  ExperimentScale scale = tiny_scale();
  scale.eot_poses = 2;
  Harness reference(model);
  reference.adopt_variant(serve::kBaseVariant);
  const auto solo = WhiteboxSweep{scale}.run(reference, serve::kBaseVariant, 0.9, stop_set);

  Harness harness(model);
  harness.adopt_variant(serve::kBaseVariant);
  serve::VariantSpec alias;
  alias.alias_of = serve::kBaseVariant;
  harness.add_victim("alias", alias);
  SweepScheduler scheduler(harness);
  const auto base_job = scheduler.add(WhiteboxSweep{scale}, serve::kBaseVariant, 0.9, stop_set);
  const auto alias_job = scheduler.add(WhiteboxSweep{scale}, "alias", 0.9, stop_set);
  scheduler.run();
  expect_sweeps_bitwise_equal(scheduler.sweep_result(base_job), solo, "base");
  expect_sweeps_bitwise_equal(scheduler.sweep_result(alias_job), solo, "alias");
  EXPECT_FALSE(any_parameter_has_grad(harness.engine().replica_model(serve::kBaseVariant, 0)));
}

// Neither RP2 nor PGD through a harness handle allocates a gradient in the
// serving replica's parameter nodes.
TEST(Harness, HandleAttacksNeverAllocateReplicaGradients) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  Harness harness(model, /*replicas=*/2);
  harness.adopt_variant(serve::kBaseVariant);
  attack::Rp2Config rp2;
  rp2.iterations = 3;
  rp2.eot_poses = 2;
  attack::rp2_attack(harness.victim_handle(serve::kBaseVariant), stop_set.images,
                     attack::sticker_mask(stop_set.masks), rp2);
  attack::PgdConfig pgd;
  pgd.steps = 3;
  attack::pgd_attack(harness.victim_handle(serve::kBaseVariant), stop_set.images,
                     std::vector<int>(2, 0), pgd);
  for (const int r : {0, 1}) {
    EXPECT_FALSE(
        any_parameter_has_grad(harness.engine().replica_model(serve::kBaseVariant, r)))
        << "replica " << r;
  }
}

TEST(Scheduler, LifecycleAndKindValidation) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  ExperimentScale scale = tiny_scale();
  scale.num_targets = 1;
  scale.rp2_iterations = 2;
  Harness harness(model);
  harness.adopt_variant(serve::kBaseVariant);

  SweepScheduler scheduler(harness);
  // Unknown victims are rejected at add() with the registered names listed.
  EXPECT_THROW(scheduler.add(WhiteboxSweep{scale}, "nope", 1.0, stop_set),
               std::invalid_argument);
  const auto job = scheduler.add(WhiteboxSweep{scale}, serve::kBaseVariant, 1.0, stop_set);
  // Results are gated until run() completes.
  EXPECT_THROW(scheduler.sweep_result(job), std::logic_error);
  scheduler.run();
  // Kind-checked accessors; double-run and post-run add are rejected.
  EXPECT_NO_THROW(scheduler.sweep_result(job));
  EXPECT_THROW(scheduler.transfer_result(job), std::invalid_argument);
  EXPECT_THROW(scheduler.sweep_result(job + 1), std::invalid_argument);
  EXPECT_THROW(scheduler.run(), std::logic_error);
  EXPECT_THROW(scheduler.add(WhiteboxSweep{scale}, serve::kBaseVariant, 1.0, stop_set),
               std::logic_error);
}

// The tentpole acceptance test: a victim served behind the engine's
// preprocess->forward pipeline runs WhiteboxSweep, plain and adaptive, bitwise
// identical to the raw single-model reference (transform applied inline,
// BPDA crafting through a hand-built handle) at every replica count.
TEST(Harness, TransformedSweepsBitwiseEqualInlineReferenceAcrossReplicaCounts) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(3);
  const auto scale = tiny_scale();
  const auto spec = defense::TransformSpec::squeeze(4);
  const defense::InputTransform transform(spec);
  const auto ref_whitebox =
      reference_whitebox_transformed(model, transform, 0.9, stop_set, scale);
  const auto ref_adaptive = reference_whitebox_transformed(model, transform, 0.9, stop_set,
                                                           scale, attack::bpda_adapter());
  // bpda is on by default, so the explicit adapter changes nothing — and the
  // adaptive protocol shares the whitebox seed schedule.
  expect_sweeps_bitwise_equal(ref_adaptive, ref_whitebox, "bpda adapter is the default");

  for (const int replicas : {1, 2, 4}) {
    const std::string context = "replicas " + std::to_string(replicas);
    Harness harness(model, replicas);
    harness.add_victim("squeeze4", transform_spec(spec));

    // The victim handle carries the transform for BPDA crafting...
    const auto handle = harness.victim_handle("squeeze4");
    EXPECT_TRUE(handle.has_input_transform()) << context;
    const auto transformed = handle.transform_input(stop_set.images);
    const auto expected = transform.apply(stop_set.images);
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
      ASSERT_EQ(transformed[i], expected[i]) << context << " index " << i;
    }

    // ...and both sweep protocols reproduce the inline reference bitwise.
    const auto whitebox = WhiteboxSweep{scale}.run(harness, "squeeze4", 0.9, stop_set);
    expect_sweeps_bitwise_equal(whitebox, ref_whitebox, context + " whitebox");
    const auto adaptive = WhiteboxSweep{scale, attack::bpda_adapter()}.run(
        harness, "squeeze4", 0.9, stop_set);
    expect_sweeps_bitwise_equal(adaptive, ref_adaptive, context + " adaptive");
    EXPECT_GT(harness.images_served("squeeze4"), 0) << context;
  }
}

// Transform off reproduces the historical path bitwise: a kNone-registered
// transform victim is structurally a plain weight-transfer variant (no
// preprocess stage, no BPDA node in the crafting graph), so its whitebox
// sweep equals the plain base sweep exactly.
TEST(Harness, NoneTransformVictimReproducesPlainWhiteboxBitwise) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(3);
  const auto scale = tiny_scale();
  const auto reference = reference_whitebox(model, 0.9, stop_set, scale);

  Harness harness(model, /*replicas=*/2);
  harness.add_victim("noop", transform_spec(defense::TransformSpec::none()));
  EXPECT_FALSE(harness.victim_handle("noop").has_input_transform());
  // transform_input is the identity for transform-free victims: no copy.
  EXPECT_TRUE(harness.victim_handle("noop")
                  .transform_input(stop_set.images)
                  .shares_storage_with(stop_set.images));
  const auto sweep = WhiteboxSweep{scale}.run(harness, "noop", 0.9, stop_set);
  expect_sweeps_bitwise_equal(sweep, reference, "kNone transform victim");

  // The bpda knob itself: the adapters document the adaptive protocol.
  const auto base_config = paper_rp2_config(scale);
  EXPECT_TRUE(attack::bpda_config(base_config, true).bpda);
  EXPECT_FALSE(attack::bpda_config(base_config, false).bpda);
  EXPECT_FALSE(attack::bpda_adapter(false)(base_config).bpda);
}

TEST(Harness, WhiteboxSweepAppliesItsAdapter) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  const auto scale = tiny_scale();
  Harness harness(model);
  harness.adopt_variant(serve::kBaseVariant);
  int adapter_calls = 0;
  WhiteboxSweep sweep{scale, [&adapter_calls](const attack::Rp2Config& c) {
                        ++adapter_calls;
                        attack::Rp2Config out = c;
                        out.iterations = 2;  // keep it cheap
                        return out;
                      }};
  sweep.run(harness, serve::kBaseVariant, 1.0, stop_set);
  EXPECT_EQ(adapter_calls, scale.num_targets);
}

TEST(Harness, VictimRegistryValidation) {
  const auto& model = tiny_trained_model();
  Harness harness(model);
  EXPECT_FALSE(harness.has_victim(serve::kBaseVariant));
  harness.adopt_variant(serve::kBaseVariant);
  EXPECT_TRUE(harness.has_victim(serve::kBaseVariant));
  // Unknown engine variants cannot be adopted; duplicates are rejected.
  EXPECT_THROW(harness.adopt_variant("nope"), std::invalid_argument);
  EXPECT_THROW(harness.adopt_variant(serve::kBaseVariant), std::invalid_argument);
  EXPECT_THROW(harness.add_victim(serve::kBaseVariant, foreign_spec(model)),
               std::invalid_argument);
  // predict() on an unregistered victim names the known ones.
  const auto stop_set = data::stop_sign_eval_set(1);
  try {
    harness.predict("missing", stop_set.images);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("base"), std::string::npos) << e.what();
  }
}

TEST(Harness, PredictMatchesRawModelAndCountsTraffic) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(4);
  Harness harness(model, /*replicas=*/2);
  harness.adopt_variant(serve::kBaseVariant);
  EXPECT_EQ(harness.replica_count(serve::kBaseVariant), 2);
  const auto via_harness = harness.predict(serve::kBaseVariant, stop_set.images);
  EXPECT_EQ(via_harness, model.predict(stop_set.images));
  EXPECT_EQ(harness.images_served(serve::kBaseVariant), 4);

  // A single CHW image is accepted everywhere a batch is — including through
  // a smoothing victim, which needs the NCHW normalization up front.
  tensor::Tensor image(tensor::Shape{3, 32, 32});
  std::copy(stop_set.images.data(), stop_set.images.data() + image.numel(), image.data());
  EXPECT_EQ(harness.predict(serve::kBaseVariant, image).size(), 1u);
  defense::SmoothingConfig smoothing;
  smoothing.sigma = 0.05;
  smoothing.samples = 2;
  eval::VictimSpec spec;
  spec.smoothing = smoothing;
  harness.add_victim("smoothed", foreign_spec(model), spec);
  EXPECT_EQ(harness.predict("smoothed", image).size(), 1u);
}

TEST(Harness, VictimHandleSplitsGradientAndPredictionSides) {
  const auto& model = tiny_trained_model();
  const auto stop_set = data::stop_sign_eval_set(2);
  Harness harness(model, /*replicas=*/2);
  harness.adopt_variant(serve::kBaseVariant);
  const auto handle = harness.victim_handle(serve::kBaseVariant);
  // Gradient side: a frozen view over the shard's weights, bitwise-equal to
  // the source, with no parameter that could receive a gradient.
  EXPECT_EQ(handle.gradient_model().predict(stop_set.images), model.predict(stop_set.images));
  const auto view = handle.gradient_model().parameters();
  const auto served = harness.engine().replica_model(serve::kBaseVariant, 0).parameters();
  ASSERT_EQ(view.size(), served.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_FALSE(view[i].requires_grad()) << "parameter " << i;
    EXPECT_TRUE(view[i].value().shares_storage_with(served[i].value())) << "parameter " << i;
  }
  // Prediction side: served by the engine.
  const auto before = harness.images_served(serve::kBaseVariant);
  EXPECT_EQ(handle.classify(stop_set.images), model.predict(stop_set.images));
  EXPECT_EQ(harness.images_served(serve::kBaseVariant), before + 2);
}

TEST(Results, WriteFileCreatesDirectoryAndContent) {
  const auto dir = std::filesystem::temp_directory_path() / "blurnet_results_test";
  std::filesystem::remove_all(dir);
  ::setenv("BLURNET_OUT_DIR", dir.string().c_str(), 1);
  EXPECT_EQ(results_dir(), dir.string());
  write_results_file("probe.csv", "a,b\n1,2\n");
  ::unsetenv("BLURNET_OUT_DIR");

  std::ifstream in(dir / "probe.csv");
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::filesystem::remove_all(dir);
}

TEST(Results, DefaultDirIsResults) {
  ::unsetenv("BLURNET_OUT_DIR");
  EXPECT_EQ(results_dir(), "results");
}

TEST(EvalStopSet, StickeredMasksAreSubsets) {
  ExperimentScale scale = tiny_scale();
  const auto set = make_eval_stop_set(scale);
  EXPECT_EQ(set.images.dim(0), scale.eval_images);
  EXPECT_EQ(set.masks.dim(0), scale.eval_images);
  EXPECT_GT(attack::mask_coverage(set.masks), 0.0);
}

}  // namespace
}  // namespace blurnet::eval
