// The road-sign classifier from the paper's setup (§II-D): three convolution
// layers plus a fully-connected layer, trained with Adam. Architecture knobs
// cover every model variant the evaluation needs:
//
//   * optional fixed blur on the *input* (Table I, "input filter k×k"),
//   * optional fixed blur on the *feature maps* after a chosen layer
//     (Table I "k×k filter on L1 maps"; supplementary A ablation),
//   * optional *learnable* depthwise filter layer after layer 1 whose weights
//     are trained with an L∞ penalty (Table II, "k×k conv").
//
// forward() exposes the intermediate feature maps so the regularized training
// objectives (TV / Tik_hf / Tik_pseudo) and the adaptive attacks can reach
// the first-layer activations.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "src/signal/kernels.h"

namespace blurnet::nn {

enum class FilterPlacement { kNone, kInput, kAfterLayer1, kAfterLayer2, kAfterLayer3 };

struct FixedFilterSpec {
  FilterPlacement placement = FilterPlacement::kNone;
  int kernel = 0;  // odd size; 0 = disabled
  signal::KernelKind kind = signal::KernelKind::kBox;
};

struct LisaCnnConfig {
  int num_classes = 18;
  int image_size = 32;
  int in_channels = 3;
  int conv1_filters = 16;
  int conv2_filters = 32;
  int conv3_filters = 64;
  // conv1 5x5/s1 (keeps 32x32 first-layer maps so the filter defenses act on
  // spatially meaningful activations), conv2 5x5/s2, conv3 3x3/s2.
  int conv1_kernel = 5, conv1_stride = 1;
  int conv2_kernel = 5, conv2_stride = 2;
  int conv3_kernel = 3, conv3_stride = 2;

  /// Fixed (non-learnable) blur filter, Table I / ablation experiments.
  FixedFilterSpec fixed_filter;

  /// Learnable depthwise layer after layer 1 (0 = absent), Table II "k×k conv".
  int learnable_depthwise_kernel = 0;

  std::uint64_t init_seed = 7;

  /// Reject malformed configs with a descriptive std::invalid_argument
  /// (non-positive sizes/filters, even conv kernels, a bad depthwise kernel).
  /// Called by the LisaCnn constructor.
  void validate() const;
};

struct ForwardResult {
  autograd::Variable logits;        // [N, num_classes]
  autograd::Variable features_l1;   // post-ReLU conv1 maps, BEFORE any filter layer
  autograd::Variable features_l1_filtered;  // after fixed/learnable filter (== features_l1 if none)
  autograd::Variable features_l2;   // post-ReLU conv2 maps
  autograd::Variable features_l3;   // post-ReLU conv3 maps
};

class LisaCnn {
 public:
  explicit LisaCnn(LisaCnnConfig config);

  /// Full forward pass. `x` is an NCHW batch in [0,1].
  ForwardResult forward(const autograd::Variable& x) const;

  /// Convenience: logits for a constant input (no graph retained).
  tensor::Tensor logits(const tensor::Tensor& x) const;
  /// Predicted class per row.
  std::vector<int> predict(const tensor::Tensor& x) const;

  const LisaCnnConfig& config() const { return config_; }

  /// Trainable parameters (order is stable across runs).
  std::vector<autograd::Variable> parameters() const;
  /// Name → parameter pairs for checkpointing.
  std::vector<std::pair<std::string, autograd::Variable>> named_parameters() const;

  /// The learnable depthwise weights (undefined Variable if absent).
  autograd::Variable depthwise_weights() const { return dw_weight_; }

  /// Copy all matching-name parameters from another model (used to transfer
  /// trained weights into a differently-filtered architecture, Table I).
  void copy_weights_from(const LisaCnn& other);

  /// Deep copy: same architecture, independently-owned parameter storage.
  /// (The copy constructor shares Variable handles; clone() does not.)
  LisaCnn clone() const;
  /// Table I weight transfer as a constructor: build `config`'s architecture
  /// and copy every matching-name parameter from this model. Parameters that
  /// only exist in the new architecture (e.g. a learnable depthwise layer)
  /// keep their deterministic seed initialization.
  LisaCnn clone_with_config(const LisaCnnConfig& config) const;
  /// Read-only view for differentiating the input: the same architecture
  /// over the same weight buffers, with every parameter a leaf that does not
  /// require gradients. A backward through it computes no weight gradient
  /// and writes nothing to this model, so concurrent attacks may share it.
  /// The view holds the buffers as of the call; copy_weights_from()/load()
  /// on this model afterwards install new buffers the view does not see.
  LisaCnn frozen() const;

  void save(const std::string& path) const;
  void load(const std::string& path);

 private:
  autograd::Variable apply_fixed_filter(const autograd::Variable& x) const;

  LisaCnnConfig config_;
  autograd::Variable conv1_w_, conv1_b_;
  autograd::Variable conv2_w_, conv2_b_;
  autograd::Variable conv3_w_, conv3_b_;
  autograd::Variable fc_w_, fc_b_;
  autograd::Variable dw_weight_;         // learnable depthwise (optional)
  tensor::Tensor fixed_stack_;           // fixed blur kernel per channel, [C,k,k]
  std::int64_t flat_features_ = 0;
};

}  // namespace blurnet::nn
