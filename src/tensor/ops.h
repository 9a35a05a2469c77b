// Non-differentiable tensor kernels. The autograd layer composes these into
// differentiable ops; attacks and the signal tools also use them directly.
#pragma once


#include "src/tensor/tensor.h"

namespace blurnet::tensor {

// ---- elementwise (allocating) ----------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor sign(const Tensor& a);
Tensor square(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor relu_mask(const Tensor& a);  // 1 where a > 0 else 0
Tensor clamp(const Tensor& a, float lo, float hi);
Tensor maximum(const Tensor& a, const Tensor& b);
Tensor minimum(const Tensor& a, const Tensor& b);

// ---- linear algebra ---------------------------------------------------------
// All three variants route through the packed, blocked microkernel in
// src/linalg/gemm.h and share its numeric contract: float32 accumulation in
// ascending-k order (split at linalg::kKc), identical across the transpose
// variants — matmul(a, transpose2d(b)) == matmul_nt(a, b) bitwise — and
// bitwise deterministic for any worker count. NaN/Inf operands propagate per
// IEEE (no zero-skip shortcuts).
/// C[m,n] = A[m,k] * B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T * B where A is [k,m], B is [k,n] -> C [m,n].
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A * B^T where A is [m,k], B is [n,k] -> C [m,n].
Tensor matmul_nt(const Tensor& a, const Tensor& b);
Tensor transpose2d(const Tensor& a);

// ---- convolution plumbing ---------------------------------------------------
/// Zero-pad the spatial dims of an NCHW tensor.
Tensor pad2d(const Tensor& x, int pad_h, int pad_w);
/// Inverse of pad2d: accumulate interior region (used for gradients).
Tensor unpad2d(const Tensor& x, int pad_h, int pad_w);

/// im2col for an NCHW input (already padded). Output is
/// [N, C*kh*kw, out_h*out_w] flattened to a rank-3 shape.
Tensor im2col(const Tensor& x, int kh, int kw, int stride_h, int stride_w);

/// Scratch-buffer variant of pad2d for the inference hot path: pads `planes`
/// consecutive [h, w] planes into a caller-owned buffer of
/// planes*(h+2*pad_h)*(w+2*pad_w) floats, so repeated forward passes reuse
/// one allocation. It writes the entire padded buffer — zero border plus
/// copied interior — in one pass, so reused scratch needs no pre-clearing.
void pad2d_into(const float* x, std::int64_t planes, std::int64_t h, std::int64_t w,
                int pad_h, int pad_w, float* out);
/// Adjoint of im2col: scatter columns back into an NCHW buffer of shape
/// [n, c, h, w] (padded sizes).
Tensor col2im(const Tensor& cols, std::int64_t n, std::int64_t c, std::int64_t h,
              std::int64_t w, int kh, int kw, int stride_h, int stride_w);

/// Output spatial size for a convolution over a padded input.
std::int64_t conv_out_size(std::int64_t in, int kernel, int stride);

// ---- reductions / shape utilities -------------------------------------------
/// Sum over N,H,W of an NCHW tensor -> rank-1 [C]. Used for bias gradients.
Tensor reduce_nhw(const Tensor& x);
/// Broadcast a rank-1 [C] bias over an NCHW tensor (allocating).
Tensor broadcast_bias_nchw(const Tensor& x, const Tensor& bias);
/// Row-wise softmax of a [n, k] matrix.
Tensor softmax_rows(const Tensor& logits);
/// Row-wise log-softmax of a [n, k] matrix (numerically stable).
Tensor log_softmax_rows(const Tensor& logits);
/// Row-wise argmax of a [n, k] matrix.
std::vector<int> argmax_rows(const Tensor& logits);

/// Dot product of two equal-numel tensors.
double dot(const Tensor& a, const Tensor& b);

/// Relative L2 distance ||a - b||_2 / ||b||_2 (the paper's dissimilarity).
double l2_dissimilarity(const Tensor& adv, const Tensor& natural);

}  // namespace blurnet::tensor
