// Input-transformation defenses: stateless preprocessing kernels applied to
// the *image* before it reaches the classifier (vs BlurNet's feature-map
// filtering). The serving engine runs one of these as the preprocess stage of
// a variant's preprocess→forward pipeline, so transformed variants inherit
// batching, replica sharding and the bitwise determinism contract unchanged.
//
// Three kernels, the related-work axis of Xu et al. (NDSS 2018) and
// JPEG-style compression defenses:
//
//   * bit-depth squeeze  — round each pixel to 2^bits - 1 uniform levels,
//   * k×k median filter  — per-channel spatial median with replicate padding,
//   * 8×8 DCT quantize   — JPEG-style blockwise DCT coefficient quantization
//                          at a libjpeg-convention quality factor.
//
// All three are deterministic, per-image (so batch splits cannot change
// results), thread-safe (per-thread scratch only, mirroring the conv path's
// ConvScratch), and non-differentiable — the attack side breaks them with
// BPDA straight-through gradients (attack::VictimHandle).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace blurnet::defense {

enum class TransformKind { kNone, kSqueeze, kMedian, kDctQuant };

const char* to_string(TransformKind kind);

/// One transform recipe. Only the field matching `kind` is read.
struct TransformSpec {
  TransformKind kind = TransformKind::kNone;
  int bits = 5;      // kSqueeze: pixel bit depth, 1..8
  int kernel = 3;    // kMedian: window side, odd and >= 1
  int quality = 50;  // kDctQuant: JPEG-convention quality factor, 1..100

  static TransformSpec none() { return {}; }
  static TransformSpec squeeze(int bits);
  static TransformSpec median(int kernel);
  static TransformSpec dct_quant(int quality);

  /// Canonical zoo name: "none", "squeeze5", "median3", "dctq50".
  std::string name() const;

  /// Reject malformed specs with a descriptive std::invalid_argument (the
  /// serving engine's input-validation style).
  void validate() const;
};

/// A validated, immutable transform: apply() maps a CHW image or NCHW batch
/// to its transformed counterpart, same shape, clamped to [0,1]. Stateless
/// beyond the spec, so one instance may be shared by every replica of a
/// variant and called from any number of threads at once.
class InputTransform {
 public:
  explicit InputTransform(TransformSpec spec);
  virtual ~InputTransform() = default;

  const TransformSpec& spec() const { return spec_; }
  const std::string& name() const { return name_; }

  /// Virtual so custom preprocess stages can be injected into the serving
  /// pipeline (serve::VariantSpec::transform) — the load tests
  /// use a gate transform that blocks here to fill queues deterministically.
  /// Overrides must keep the contract above: same shape, deterministic,
  /// per-image, thread-safe.
  virtual tensor::Tensor apply(const tensor::Tensor& images) const;

 protected:
  /// For subclasses providing their own apply(): records the spec (typically
  /// kNone) under a custom zoo name.
  InputTransform(TransformSpec spec, std::string name);

 private:
  TransformSpec spec_;
  std::string name_;
};

using TransformPtr = std::shared_ptr<const InputTransform>;

/// Build a shareable transform from a validated spec. kNone yields nullptr —
/// the engine's representation of "no preprocess stage", so a kNone-wrapped
/// variant is bitwise the plain forward path.
TransformPtr make_transform(const TransformSpec& spec);

/// The standard defense zoo: squeeze4, squeeze5, median3, median5, dctq50,
/// dctq75 (names are TransformSpec::name()).
std::vector<TransformSpec> standard_transforms();

// ---- raw kernels (exposed for tests and microbenchmarks) --------------------
/// Round every value of a [0,1] image to 2^bits - 1 uniform levels
/// (clamping first). Idempotent. bits in 1..8.
tensor::Tensor bit_depth_squeeze(const tensor::Tensor& x, int bits);
/// Per-plane k×k spatial median with replicate (edge-clamp) padding, so every
/// window holds exactly k*k samples and a constant plane stays constant at
/// the borders. kernel odd and >= 1 (1 is the identity). 3 and 5 run the
/// kernels::median3_row/median5_row sorting networks (bitwise equal across
/// kernel targets); larger kernels select with std::nth_element.
tensor::Tensor median_filter_nchw(const tensor::Tensor& x, int kernel);
/// JPEG-style blockwise compression of a [0,1] image: each channel plane is
/// scaled to [-128,127], split into 8×8 blocks (edge-replicated past the
/// boundary), DCT-II transformed, quantized with the JPEG luminance table
/// scaled by `quality` (libjpeg convention, 1..100), dequantized and inverse
/// transformed. Output clamped back to [0,1].
tensor::Tensor dct_quantize_nchw(const tensor::Tensor& x, int quality);

}  // namespace blurnet::defense
