// Robust Physical Perturbations (RP2, Eykholt et al. 2017) and its adaptive
// variants from the paper:
//
//   base (Eq. 1):        argmin_δ λ‖M_x·δ‖_p + NPS + J(f(x + T(M_x·δ)), y*)
//   low-frequency (Eq.8): δ projected onto the lowest dim×dim DCT coefficients
//   regularizer-aware (Eqs. 9-11): + the defender's TV / Tik penalty on the
//                                   victim's first-layer feature maps
//
// The optimization runs Adam on a per-image δ batch (the loss decomposes per
// image, so attacking the whole evaluation set jointly is exactly the
// single-image attack, vectorized — DESIGN.md §5).
#pragma once

#include <cstdint>

#include "src/attack/threat_model.h"
#include "src/nn/lisa_cnn.h"

namespace blurnet::attack {

enum class PerturbationNorm { kL1, kL2 };

/// Regularizer-aware adaptive term added to the attacker loss (Eqs. 9-11).
struct FeatureRegTerm {
  enum class Kind { kNone, kTv, kTikRows, kTikElementwise };
  Kind kind = Kind::kNone;
  tensor::Tensor row_operator;          // [H,H] for kTikRows
  tensor::Tensor elementwise_operator;  // [H,W] for kTikElementwise
  double weight = 1.0;
};

struct Rp2Config {
  int iterations = 150;
  double lambda = 0.002;        // mask-norm weight (paper's λ)
  PerturbationNorm norm = PerturbationNorm::kL2;
  double nps_weight = 0.25;
  double learning_rate = 0.05;  // Adam on δ
  int target_class = 1;

  // Expectation over transformation (the paper's alignment functions T_i):
  // each iteration samples `eot_poses` fresh poses for the masked
  // perturbation, tiles the image batch to [n*K, C, H, W], forwards every
  // (image, pose) pair through the victim in one graph, and averages the
  // cross-entropy over poses. K = 1 is bitwise identical to the historical
  // single-pose-per-iteration path (attack::EotSampler's slot-0 stream is the
  // old draw sequence). The wide ranges mirror the varying-distance/angle
  // robustness RP2 optimizes for.
  bool use_eot = true;
  int eot_poses = 1;
  double max_rotation = 0.25;
  double min_scale = 0.75, max_scale = 1.10;
  double max_shift = 2.5;

  // Adaptive attack knobs.
  int dct_mask_dim = 0;        // > 0 enables the low-frequency projection
  FeatureRegTerm feature_reg;  // regularizer-aware term

  /// BPDA (Backward Pass Differentiable Approximation) against victims
  /// served behind a non-differentiable input transform: each crafting
  /// forward applies the victim's transform to the candidate adversarial
  /// batch — exactly what the serving path will do — while the backward
  /// passes gradients through as the identity (straight-through estimator).
  /// With false the attacker is *oblivious*: it crafts against the bare
  /// model and only the final predictions see the transform. Victims without
  /// a transform are unaffected either way — that path stays bitwise the
  /// historical one.
  bool bpda = true;

  /// Physical-attack semantics (default, matching the paper's evaluation):
  /// ONE sticker perturbation is optimized to fool the classifier across the
  /// whole image set, then the attack success rate is the fraction of images
  /// it flips. With false, every image gets its own δ (a strictly stronger,
  /// purely digital adversary — used by tests and ablations).
  bool shared_perturbation = true;

  std::uint64_t seed = 1;

  /// Reject malformed configurations with a descriptive
  /// std::invalid_argument (the serving engine's input-validation style):
  /// positive iterations / learning_rate / eot_poses, non-negative lambda /
  /// nps_weight / max_rotation / max_shift, min_scale <= max_scale, and a
  /// non-negative dct_mask_dim. Called by rp2_attack() up front.
  void validate() const;
};

/// Attack a batch of images. `masks` is [N,1,H,W] (the sticker mask M_x).
/// Returns adversarial examples clamped to [0,1] plus victim predictions.
///
/// The optimization differentiates through `victim.gradient_model()`, a
/// frozen view, so only the perturbation gets a gradient; the final
/// clean/adversarial predictions go through `victim.classify()`, so an
/// engine-backed handle serves them from the batched inference path. A plain
/// nn::LisaCnn converts implicitly to a handle that uses the model for both.
AttackResult rp2_attack(const VictimHandle& victim, const tensor::Tensor& images,
                        const tensor::Tensor& masks, const Rp2Config& config);

/// Apply a crafted shared sticker (AttackResult::shared_delta, [1,C,H,W]) to
/// a *new* set of images — the physical-attack evaluation step: the same
/// printed sticker is seen on held-out sign instances. Each image's own
/// sticker mask selects where the sticker lands; the result is clamped to
/// [0,1].
tensor::Tensor apply_shared_sticker(const tensor::Tensor& images, const tensor::Tensor& masks,
                                    const tensor::Tensor& shared_delta);

}  // namespace blurnet::attack
