#include "src/nn/lisa_cnn.h"

#include <algorithm>
#include <stdexcept>

#include "src/nn/init.h"
#include "src/nn/model_io.h"
#include "src/tensor/ops.h"

namespace blurnet::nn {

using autograd::Variable;
using tensor::Shape;
using tensor::Tensor;

void LisaCnnConfig::validate() const {
  auto require_positive = [](int value, const char* field) {
    if (value <= 0) {
      throw std::invalid_argument(std::string("LisaCnnConfig: ") + field +
                                  " must be positive");
    }
  };
  // Symmetric k/2 padding assumes odd kernels; an even kernel silently
  // shifts the feature maps, so reject it outright.
  auto require_odd_kernel = [&](int value, const char* field) {
    require_positive(value, field);
    if (value % 2 == 0) {
      throw std::invalid_argument(std::string("LisaCnnConfig: ") + field +
                                  " must be odd (symmetric padding)");
    }
  };
  require_positive(num_classes, "num_classes");
  require_positive(image_size, "image_size");
  require_positive(in_channels, "in_channels");
  require_positive(conv1_filters, "conv1_filters");
  require_positive(conv2_filters, "conv2_filters");
  require_positive(conv3_filters, "conv3_filters");
  require_odd_kernel(conv1_kernel, "conv1_kernel");
  require_odd_kernel(conv2_kernel, "conv2_kernel");
  require_odd_kernel(conv3_kernel, "conv3_kernel");
  require_positive(conv1_stride, "conv1_stride");
  require_positive(conv2_stride, "conv2_stride");
  require_positive(conv3_stride, "conv3_stride");
  if (learnable_depthwise_kernel != 0) {
    require_odd_kernel(learnable_depthwise_kernel, "learnable_depthwise_kernel");
  }
  if (fixed_filter.placement != FilterPlacement::kNone) {
    require_odd_kernel(fixed_filter.kernel, "fixed_filter.kernel");
  }
}

LisaCnn::LisaCnn(LisaCnnConfig config) : config_(config) {
  config.validate();
  util::Rng rng(config.init_seed);

  auto conv_weight = [&](int filters, int channels, int kernel) {
    const std::int64_t fan_in = static_cast<std::int64_t>(channels) * kernel * kernel;
    return Variable::leaf(
        he_normal(Shape{filters, channels, kernel, kernel}, fan_in, rng), true);
  };
  conv1_w_ = conv_weight(config.conv1_filters, config.in_channels, config.conv1_kernel);
  conv1_b_ = Variable::leaf(Tensor::zeros(Shape::vec(config.conv1_filters)), true);
  conv2_w_ = conv_weight(config.conv2_filters, config.conv1_filters, config.conv2_kernel);
  conv2_b_ = Variable::leaf(Tensor::zeros(Shape::vec(config.conv2_filters)), true);
  conv3_w_ = conv_weight(config.conv3_filters, config.conv2_filters, config.conv3_kernel);
  conv3_b_ = Variable::leaf(Tensor::zeros(Shape::vec(config.conv3_filters)), true);

  // Spatial sizes after the three convolutions (symmetric padding k/2).
  auto out_size = [](std::int64_t in, int kernel, int stride) {
    const int pad = kernel / 2;
    return (in + 2 * pad - kernel) / stride + 1;
  };
  std::int64_t side = config.image_size;
  side = out_size(side, config.conv1_kernel, config.conv1_stride);
  side = out_size(side, config.conv2_kernel, config.conv2_stride);
  side = out_size(side, config.conv3_kernel, config.conv3_stride);
  flat_features_ = static_cast<std::int64_t>(config.conv3_filters) * side * side;

  fc_w_ = Variable::leaf(
      xavier_uniform(Shape::mat(flat_features_, config.num_classes), flat_features_,
                     config.num_classes, rng),
      true);
  fc_b_ = Variable::leaf(Tensor::zeros(Shape::vec(config.num_classes)), true);

  if (config.learnable_depthwise_kernel > 0) {
    dw_weight_ = Variable::leaf(
        identity_depthwise(config.conv1_filters, config.learnable_depthwise_kernel,
                           /*noise=*/0.01, rng),
        true);
  }
  if (config.fixed_filter.placement != FilterPlacement::kNone) {
    // A fixed blur is a depthwise convolution whose kernel is shared across
    // channels; express it once as a constant per-channel kernel stack for
    // the channel count at the configured placement.
    const Tensor kernel = signal::make_blur_kernel(config.fixed_filter.kernel,
                                                   config.fixed_filter.kind);
    std::int64_t channels = config.in_channels;
    switch (config.fixed_filter.placement) {
      case FilterPlacement::kAfterLayer1: channels = config.conv1_filters; break;
      case FilterPlacement::kAfterLayer2: channels = config.conv2_filters; break;
      case FilterPlacement::kAfterLayer3: channels = config.conv3_filters; break;
      case FilterPlacement::kInput:
      case FilterPlacement::kNone: break;
    }
    const int k = config.fixed_filter.kernel;
    const std::int64_t k2 = kernel.numel();
    fixed_stack_ = Tensor(Shape{channels, k, k});
    for (std::int64_t c = 0; c < channels; ++c) {
      std::copy(kernel.data(), kernel.data() + k2, fixed_stack_.data() + c * k2);
    }
  }
}

Variable LisaCnn::apply_fixed_filter(const Variable& x) const {
  return autograd::depthwise_conv2d_same(x, Variable::constant(fixed_stack_), Variable());
}

ForwardResult LisaCnn::forward(const Variable& x) const {
  // Every conv applies its ReLU in its own store pass (bitwise the
  // conv2d -> relu chain, values and gradients alike).
  constexpr auto kRelu = autograd::Activation::kRelu;
  ForwardResult result;
  Variable h = x;
  if (config_.fixed_filter.placement == FilterPlacement::kInput) {
    h = apply_fixed_filter(h);
  }
  h = autograd::conv2d(h, conv1_w_, conv1_b_, config_.conv1_stride,
                       config_.conv1_kernel / 2, kRelu);
  result.features_l1 = h;
  if (config_.fixed_filter.placement == FilterPlacement::kAfterLayer1) {
    h = apply_fixed_filter(h);
  }
  if (dw_weight_.defined()) {
    h = autograd::depthwise_conv2d_same(h, dw_weight_, Variable());
  }
  result.features_l1_filtered = h;

  h = autograd::conv2d(h, conv2_w_, conv2_b_, config_.conv2_stride,
                       config_.conv2_kernel / 2, kRelu);
  result.features_l2 = h;
  if (config_.fixed_filter.placement == FilterPlacement::kAfterLayer2) {
    h = apply_fixed_filter(h);
  }

  h = autograd::conv2d(h, conv3_w_, conv3_b_, config_.conv3_stride,
                       config_.conv3_kernel / 2, kRelu);
  result.features_l3 = h;
  if (config_.fixed_filter.placement == FilterPlacement::kAfterLayer3) {
    h = apply_fixed_filter(h);
  }

  result.logits = autograd::dense(autograd::flatten2d(h), fc_w_, fc_b_);
  return result;
}

Tensor LisaCnn::logits(const Tensor& x) const {
  // Inference only: with gradients off the forward builds no graph and the
  // convolution kernels may reuse per-thread scratch buffers.
  autograd::NoGradGuard no_grad;
  return forward(Variable::constant(x)).logits.value();
}

std::vector<int> LisaCnn::predict(const Tensor& x) const {
  return tensor::argmax_rows(logits(x));
}

std::vector<Variable> LisaCnn::parameters() const {
  std::vector<Variable> params = {conv1_w_, conv1_b_, conv2_w_, conv2_b_,
                                  conv3_w_, conv3_b_, fc_w_,    fc_b_};
  if (dw_weight_.defined()) params.push_back(dw_weight_);
  return params;
}

std::vector<std::pair<std::string, Variable>> LisaCnn::named_parameters() const {
  std::vector<std::pair<std::string, Variable>> named = {
      {"conv1.w", conv1_w_}, {"conv1.b", conv1_b_}, {"conv2.w", conv2_w_},
      {"conv2.b", conv2_b_}, {"conv3.w", conv3_w_}, {"conv3.b", conv3_b_},
      {"fc.w", fc_w_},       {"fc.b", fc_b_}};
  if (dw_weight_.defined()) named.emplace_back("depthwise.w", dw_weight_);
  return named;
}

void LisaCnn::copy_weights_from(const LisaCnn& other) {
  auto mine = named_parameters();
  const auto theirs = other.named_parameters();
  for (auto& [name, param] : mine) {
    for (const auto& [other_name, other_param] : theirs) {
      if (name == other_name) {
        if (param.shape() != other_param.shape()) {
          throw std::invalid_argument("copy_weights_from: shape mismatch for " + name);
        }
        param.mutable_value() = other_param.value().clone();
      }
    }
  }
}

LisaCnn LisaCnn::clone() const { return clone_with_config(config_); }

LisaCnn LisaCnn::clone_with_config(const LisaCnnConfig& config) const {
  LisaCnn copy(config);
  copy.copy_weights_from(*this);
  return copy;
}

LisaCnn LisaCnn::frozen() const {
  LisaCnn view = *this;
  for (Variable* param : {&view.conv1_w_, &view.conv1_b_, &view.conv2_w_, &view.conv2_b_,
                          &view.conv3_w_, &view.conv3_b_, &view.fc_w_, &view.fc_b_,
                          &view.dw_weight_}) {
    if (param->defined()) *param = Variable::leaf(param->value(), /*requires_grad=*/false);
  }
  return view;
}

void LisaCnn::save(const std::string& path) const { save_parameters(path, named_parameters()); }

void LisaCnn::load(const std::string& path) {
  auto named = named_parameters();
  load_parameters(path, named);
}

}  // namespace blurnet::nn
