// 2-D blur kernels ("standard blur kernels" of §III) and a fast non-autograd
// same-padding filter used by the input-blur and fixed feature-map-blur
// defenses and by the Fig. 2 analysis.
#pragma once

#include "src/tensor/tensor.h"

namespace blurnet::signal {

enum class KernelKind { kBox, kGaussian };

/// size×size normalized blur kernel (sums to 1).
tensor::Tensor make_blur_kernel(int size, KernelKind kind = KernelKind::kBox,
                                double sigma = -1.0);

/// Depthwise 2-D correlation with same padding: each channel of the NCHW
/// input is filtered independently with `kernel` (rank-2). Stride 1. Border
/// windows are renormalized by the in-bounds kernel mass, so a unit-mass blur
/// of a constant plane returns the constant everywhere (plain zero padding
/// would darken the edges).
tensor::Tensor filter2d_depthwise(const tensor::Tensor& x, const tensor::Tensor& kernel);

}  // namespace blurnet::signal
