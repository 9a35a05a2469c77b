// Convenience constructors for the paper's adaptive attacks (§V): they are
// RP2 configurations with the low-frequency DCT projection (Eq. 8) or the
// defender's own regularizer folded into the attacker loss (Eqs. 9-11).
//
// Each *_config function maps a base config to its adaptive variant; the
// *_adapter factories package the same mapping as a reusable Rp2Adapter for
// the evaluation protocols (eval::WhiteboxSweep::adapt tailors the sweep's base
// config per victim through one of these).
#pragma once

#include <functional>

#include "src/attack/rp2.h"

namespace blurnet::attack {

/// Maps the evaluation protocol's base RP2 config to the attack actually run
/// against a given victim (e.g. one of the adaptive variants below).
using Rp2Adapter = std::function<Rp2Config(const Rp2Config&)>;

/// §V-A: low-frequency attack on the depthwise-convolution defenses. The
/// masked perturbation is projected onto its lowest `dct_dim`×`dct_dim`
/// DCT coefficients each iteration (default 16, swept in Fig. 3).
Rp2Config low_frequency_config(const Rp2Config& base, int dct_dim = 16);

/// §V-B, Eq. 9: adds the TV penalty of the victim's first-layer feature maps
/// to the attacker loss.
Rp2Config tv_aware_config(const Rp2Config& base, double weight = 1.0);

/// §V-B, Eq. 10: adds ||L_hf · F||² with the defender's operator.
Rp2Config tik_hf_aware_config(const Rp2Config& base, const tensor::Tensor& l_hf,
                              double weight = 1.0);

/// §V-B, Eq. 11: adds ||L_diff⁺ ⊙ F||² with the defender's operator.
Rp2Config tik_pseudo_aware_config(const Rp2Config& base, const tensor::Tensor& p_operator,
                                  double weight = 1.0);

/// Pose-batched EOT: average the attacker loss over `poses` sampled
/// alignments per step (K = 1 is the historical single-pose path; see
/// Rp2Config::eot_poses for the determinism contract).
Rp2Config eot_poses_config(const Rp2Config& base, int poses);

/// BPDA (Athalye et al. 2018) against input-transform defenses (squeeze /
/// median / DCT quantization served through the engine's preprocess stage):
/// the crafting forward applies the victim's transform, the backward passes
/// gradients straight through as the identity (Rp2Config::bpda). `enabled`
/// false yields the *oblivious* attacker, which crafts against the bare
/// model — on a transform-free victim both settings are bitwise the plain
/// white-box attack.
Rp2Config bpda_config(const Rp2Config& base, bool enabled = true);

/// Adapter forms of the adaptive attacks, for protocol objects.
Rp2Adapter low_frequency_adapter(int dct_dim = 16);
Rp2Adapter tv_aware_adapter(double weight = 1.0);
Rp2Adapter tik_hf_aware_adapter(tensor::Tensor l_hf, double weight = 1.0);
Rp2Adapter tik_pseudo_aware_adapter(tensor::Tensor p_operator, double weight = 1.0);
Rp2Adapter eot_poses_adapter(int poses);
Rp2Adapter bpda_adapter(bool enabled = true);

/// Left-to-right adapter composition (`outer` runs on `inner`'s output), so
/// e.g. compose(low_frequency_adapter(16), eot_poses_adapter(8)) is the
/// pose-batched low-frequency attack. Either side may be null (identity).
Rp2Adapter compose(Rp2Adapter inner, Rp2Adapter outer);

}  // namespace blurnet::attack
