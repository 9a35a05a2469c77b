// Differentiable operations. Each op returns a Variable whose backward
// closure pushes gradients into its parents; all closures are checked against
// central finite differences in tests/autograd_gradcheck_test.cpp.
#pragma once

#include <vector>

#include "src/autograd/variable.h"

namespace blurnet::autograd {

// ---- arithmetic -------------------------------------------------------------
Variable add(const Variable& a, const Variable& b);
Variable sub(const Variable& a, const Variable& b);
Variable mul(const Variable& a, const Variable& b);  // elementwise
Variable add_scalar(const Variable& a, float s);
Variable mul_scalar(const Variable& a, float s);
Variable neg(const Variable& a);
/// Elementwise product with a constant tensor (no gradient into the constant).
Variable mul_const(const Variable& a, const tensor::Tensor& c);
Variable add_const(const Variable& a, const tensor::Tensor& c);
/// Straight-through estimator (BPDA): the op's value is `forward_value`
/// verbatim — bitwise, not a float re-derivation — while the backward pass
/// hands the incoming gradient to `a` unchanged, as if the op were the
/// identity. Used to differentiate "through" non-differentiable input
/// transforms: forward_value = transform(a.value()).
Variable straight_through(const Variable& a, const tensor::Tensor& forward_value);

// ---- shape ------------------------------------------------------------------
Variable reshape(const Variable& a, tensor::Shape new_shape);
/// Flatten an NCHW batch to [N, C*H*W].
Variable flatten2d(const Variable& a);
/// Tile a [1,C,H,W] tensor to [n,C,H,W]; gradient sums over the batch. Used
/// by the shared-sticker RP2 mode (one physical perturbation, many views).
Variable broadcast_batch(const Variable& a, std::int64_t n);
/// Tile a whole [N,C,H,W] batch k times to [N*k,C,H,W] in pose-major blocks:
/// out[j*N + i] = a[i] for j in [0,k). The gradient sums the k copies back
/// (ascending j, so accumulation order is fixed). Used by the pose-batched
/// EOT pipeline: one graph forwards every (image, pose) pair at once.
Variable repeat_batch(const Variable& a, std::int64_t k);

// ---- activations ------------------------------------------------------------
Variable relu(const Variable& a);

// ---- linear layers ----------------------------------------------------------
/// y = x·W + b with x [m,k], W [k,n], b [n] (b may be undefined).
Variable dense(const Variable& x, const Variable& w, const Variable& b);

// ---- convolutions -----------------------------------------------------------
/// What a layer applies to its output before returning it.
enum class Activation { kNone, kRelu };

/// Standard convolution: x NCHW, w [F,C,kh,kw], b [F] (optional, may be
/// undefined). Symmetric zero padding `pad`, square stride. Throws
/// std::invalid_argument for stride < 1 or pad < 0. With Activation::kRelu
/// the ReLU runs in the conv's own store pass: value and dX/dW/db are
/// bitwise those of relu(conv2d(...)), in one node instead of two.
Variable conv2d(const Variable& x, const Variable& w, const Variable& b, int stride,
                int pad, Activation activation = Activation::kNone);
/// Depthwise convolution with same padding, stride 1: w [C,kh,kw], optional
/// b [C]. Each channel filtered independently — the paper's filter layer.
Variable depthwise_conv2d_same(const Variable& x, const Variable& w, const Variable& b);

// ---- reductions & norms -------------------------------------------------------
Variable sum(const Variable& a);
Variable mean(const Variable& a);
Variable sum_squares(const Variable& a);
Variable l1_norm(const Variable& a);
/// Euclidean norm with safe gradient at 0.
Variable l2_norm(const Variable& a);

// ---- losses -------------------------------------------------------------------
/// Mean softmax cross-entropy over the batch; logits [N,K], labels size N.
Variable softmax_cross_entropy(const Variable& logits, const std::vector<int>& labels);

/// Total-variation penalty of NCHW feature maps, Eq. (3)/(4) of the paper:
/// (1/(N*C)) * sum_{n,c} TV(F[n,c,:,:]).
Variable tv_loss(const Variable& x);

/// Tikhonov penalty with a row operator (paper §IV-C, "Tik_hf"):
/// (1/(N*C)) * sum_{n,c} ||L · F[n,c,:,:]||_F^2, L applied along the H axis.
Variable tikhonov_rows(const Variable& x, const tensor::Tensor& l_operator);

/// Tikhonov penalty with an elementwise operator (paper §IV-C, "Tik_pseudo"):
/// (1/(N*C)) * sum_{n,c} ||P ⊙ F[n,c,:,:]||_F^2.
Variable tikhonov_elementwise(const Variable& x, const tensor::Tensor& p_operator);

/// Sum over channels of the L∞ norm of each depthwise kernel (Eq. (2)):
/// sum_c max_{i,j} |W[c,i,j]| (subgradient routed to the arg-max entry).
Variable linf_per_channel(const Variable& w);

// ---- attack-specific ops --------------------------------------------------------
/// 2-D affine transform (inverse-warp convention), bilinear sampling with
/// zeros outside. Differentiable w.r.t. the input image batch.
struct Affine2D {
  // Maps *output* pixel coordinates to *input* coordinates:
  //   in_x = m00*x + m01*y + tx,  in_y = m10*x + m11*y + ty
  double m00 = 1, m01 = 0, tx = 0;
  double m10 = 0, m11 = 1, ty = 0;

  static Affine2D identity() { return {}; }
  /// Rotation (radians) + isotropic scale + translation about the centre of
  /// an h×w image (builds the inverse map of the forward transform).
  static Affine2D rotation_scale_about_center(double angle_rad, double scale, double dx,
                                              double dy, int height, int width);
};
Variable affine_warp(const Variable& x, const Affine2D& transform);
/// Per-sample variant: transforms[i] warps batch row i (transforms.size()
/// must equal the batch dimension). The bilinear taps and their gradients are
/// computed exactly as in the single-transform overload, which is equivalent
/// to passing n copies of one transform — bitwise, not approximately.
Variable affine_warp(const Variable& x, const std::vector<Affine2D>& transforms);

/// Project each channel plane onto its lowest dim×dim DCT-II coefficients
/// (paper Eq. (8): IDCT(M_dim · DCT(·))). Linear and self-adjoint.
Variable dct_lowpass(const Variable& x, int dim);

/// Non-printability score (Sharif et al.; paper §II-B). `palette` is [P,3]
/// printable RGB triples; for each pixel triple v the term is
/// prod_j (||v − palette_j||_1 / 3), and the loss is the mean over pixels.
/// x must be [N,3,H,W].
Variable nps_loss(const Variable& x, const tensor::Tensor& palette);

}  // namespace blurnet::autograd
