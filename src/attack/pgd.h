// Projected gradient descent (Madry et al.) and FGSM under the L∞ threat
// model. Used for Table IV (every BlurNet defense falls to an unrestricted
// pixel adversary) and for adversarial training (Table II/V baselines).
#pragma once

#include <cstdint>
#include <vector>

#include "src/attack/threat_model.h"
#include "src/nn/lisa_cnn.h"

namespace blurnet::attack {

struct PgdConfig {
  double epsilon = 8.0 / 255.0;  // L∞ ball radius
  double step_size = 0.01;       // α
  int steps = 10;
  bool targeted = false;
  int target_class = 0;   // used when targeted
  bool random_start = true;
  std::uint64_t seed = 3;

  // Pose-batched EOT, off by default (the unrestricted pixel adversary of
  // Table IV needs no alignment robustness). With eot_poses > 1 every step
  // tiles the batch to [n*K, C, H, W], warps pose block j with a sampled
  // alignment (attack::EotSampler on a salted stream, so the pose draws never
  // collide with the random-start noise), and averages the loss over poses —
  // the gradient of the expectation over transformations. eot_poses = 1 is
  // the historical non-EOT PGD, bitwise.
  int eot_poses = 1;
  double max_rotation = 0.25;
  double min_scale = 0.75, max_scale = 1.10;
  double max_shift = 2.5;

  /// BPDA straight-through against input-transform victims (see
  /// Rp2Config::bpda): each step's forward applies the victim's transform to
  /// the model input, the backward treats it as the identity. false crafts
  /// obliviously against the bare model. No effect on transform-free victims.
  bool bpda = true;

  /// Reject malformed configurations with a descriptive
  /// std::invalid_argument (the serving engine's input-validation style):
  /// positive epsilon / step_size / steps / eot_poses, non-negative
  /// max_rotation / max_shift, min_scale <= max_scale. Called by
  /// pgd_attack() up front.
  void validate() const;
};

/// Untargeted (maximize loss on true labels) or targeted PGD. Gradients go
/// through `victim.gradient_model()`, a frozen view, to the input only; the
/// final clean/adversarial predictions through `victim.classify()` (a plain
/// nn::LisaCnn converts implicitly).
AttackResult pgd_attack(const VictimHandle& victim, const tensor::Tensor& images,
                        const std::vector<int>& labels, const PgdConfig& config);

/// Single-step FGSM (equivalent to PGD with steps=1, step=epsilon, no restart).
AttackResult fgsm_attack(const VictimHandle& victim, const tensor::Tensor& images,
                         const std::vector<int>& labels, double epsilon);

}  // namespace blurnet::attack
