#include "src/autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/kernels/dispatch.h"
#include "src/linalg/gemm.h"
#include "src/signal/dct.h"
#include "src/tensor/ops.h"
#include "src/util/parallel.h"

namespace blurnet::autograd {

namespace {

using tensor::Shape;
using tensor::Tensor;

void require_same_shape(const Variable& a, const Variable& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape().to_string() + " vs " + b.shape().to_string());
  }
}

// Whether a layer op over input x, weights w and optional bias b must build
// a graph node.
bool needs_grad(const Variable& x, const Variable& w, const Variable& b) {
  return grad_enabled() &&
         (x.requires_grad() || w.requires_grad() || (b.defined() && b.requires_grad()));
}

// Per-thread scratch reused across convolution forwards (with or without
// gradients), so a warm serving thread runs the whole conv forward without
// touching the allocator. conv2d pads one image at a time into `padded` (the
// depthwise forward and dW reuse it for their padded batch, the depthwise dX
// for one padded gradient plane at a time, sequentially) and packs one
// kNr-wide column strip of the implicit im2col matrix into `strip`; the
// calling thread also packs the weights into `packed_w`, which every pool
// lane then reads for the duration of the parallel region. Nothing here
// outlives the call: the conv backward rebuilds its own im2col matrix.
struct ConvScratch {
  std::vector<float> padded;
  std::vector<float> packed_w;
  std::vector<float> strip;
};

ConvScratch& conv_scratch() {
  thread_local ConvScratch scratch;
  return scratch;
}

// The shape of one implicit-GEMM convolution: C[f, oh*ow] = W[f, patch] *
// cols[patch, oh*ow], where cols is the im2col matrix of a padded image and
// is never materialized. The padded image is stored in column phases (see
// pad_phases_into): each padded row is `stride` runs of `wq` floats, so
// padded column x sits at float (x % stride) * wq + x / stride of its row.
// At stride 1 that is the plain padded row (wq == wp).
struct ConvGeometry {
  std::int64_t c, hp, wp, kh, kw, stride, oh, ow, f, patch, wq;
};

// Pad one [c, h, w] image by `pad` zeros on every side into the column-phase
// layout of ConvGeometry. Output column ox reads tap fx at phase
// fx % stride, index ox + fx / stride, so the kNr consecutive columns of a
// strip read consecutive floats for every tap at every stride. Phase slots
// past the padded width are zeroed but never read.
void pad_phases_into(const float* image, const ConvGeometry& g, int pad,
                     float* out) {
  const std::int64_t h = g.hp - 2 * pad, w = g.wp - 2 * pad;
  const std::int64_t pitch = g.stride * g.wq;
  for (std::int64_t ic = 0; ic < g.c; ++ic) {
    float* plane = out + ic * g.hp * pitch;
    std::fill(plane, plane + pad * pitch, 0.0f);
    std::fill(plane + (pad + h) * pitch, plane + g.hp * pitch, 0.0f);
    for (std::int64_t y = 0; y < h; ++y) {
      const float* src = image + (ic * h + y) * w;
      float* row = plane + (pad + y) * pitch;
      for (std::int64_t p = 0; p < g.stride; ++p) {
        // Phase p holds padded columns p, p + stride, ...; the image columns
        // among them are x = q * stride + p - pad for q in [q0, q1).
        const std::int64_t q0 = std::max<std::int64_t>(0, (pad - p + g.stride - 1) / g.stride);
        const std::int64_t q1 = std::max(q0, (w + pad - p + g.stride - 1) / g.stride);
        float* dst = row + p * g.wq;
        std::fill(dst, dst + q0, 0.0f);
        for (std::int64_t q = q0; q < q1; ++q) dst[q] = src[q * g.stride + p - pad];
        std::fill(dst + q1, dst + g.wq, 0.0f);
      }
    }
  }
}

// Pack W[f, patch] into mr-tall row panels, one set per kKc k-block:
//   packed[f_tiles*mr*kb + (it*kc + kk)*mr + ii] = W[it*mr + ii, kb + kk]
// zero filled past the last filter — exactly linalg's A-panel layout, so
// the microtile sees the same operands the explicit GEMM packed. W is read
// one filter row at a time, front to back.
void pack_conv_weights(const float* w, std::int64_t f, std::int64_t patch,
                       std::int64_t mr, float* packed) {
  const std::int64_t f_tiles = (f + mr - 1) / mr;
  for (std::int64_t kb = 0; kb < patch; kb += linalg::kKc) {
    const std::int64_t kc = std::min(linalg::kKc, patch - kb);
    for (std::int64_t it = 0; it < f_tiles; ++it) {
      float* dst = packed + f_tiles * mr * kb + it * kc * mr;
      const std::int64_t rn = std::min(mr, f - it * mr);
      for (std::int64_t ii = 0; ii < rn; ++ii) {
        const float* wrow = w + (it * mr + ii) * patch + kb;
        for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * mr + ii] = wrow[kk];
      }
      for (std::int64_t ii = rn; ii < mr; ++ii) {
        for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * mr + ii] = 0.0f;
      }
    }
  }
}

// Pack columns [j0, j0+jn) of the implicit im2col matrix of one padded
// image into a patch x kNr strip (row kk = patch index (ic, fy, fx)),
// zero filled past jn. A full strip inside one output row is a contiguous
// copy at every stride (the column-phase layout makes it so); a strip that
// wraps rows gathers through per-column offsets.
void pack_conv_strip(const float* src, const ConvGeometry& g, std::int64_t j0,
                     std::int64_t jn, float* strip) {
  constexpr std::int64_t nr = linalg::kNr;
  const std::int64_t pitch = g.stride * g.wq;  // floats per padded row
  std::int64_t offset[nr];
  for (std::int64_t jj = 0; jj < jn; ++jj) {
    const std::int64_t oy = (j0 + jj) / g.ow, ox = (j0 + jj) % g.ow;
    offset[jj] = oy * g.stride * pitch + ox;
  }
  // Visit every tap row of the patch in (ic, fy, fx) order; tap fx starts
  // at phase fx % stride, index fx / stride of its padded row.
  auto for_each_tap = [&](auto&& copy) {
    float* dst = strip;
    for (std::int64_t ic = 0; ic < g.c; ++ic) {
      for (std::int64_t fy = 0; fy < g.kh; ++fy) {
        const float* row = src + (ic * g.hp + fy) * pitch;
        std::int64_t phase = 0, index = 0;
        for (std::int64_t fx = 0; fx < g.kw; ++fx, dst += nr) {
          copy(row + phase * g.wq + index, dst);
          if (++phase == g.stride) phase = 0, ++index;
        }
      }
    }
  };
  if (jn == nr && j0 % g.ow + nr <= g.ow) {
    for_each_tap([&](const float* tap, float* dst) {
      std::memcpy(dst, tap + offset[0], nr * sizeof(float));
    });
  } else {
    for_each_tap([&](const float* tap, float* dst) {
      for (std::int64_t jj = 0; jj < jn; ++jj) dst[jj] = tap[offset[jj]];
      std::fill(dst + jn, dst + nr, 0.0f);
    });
  }
}

// One image of the implicit-GEMM forward: out[f, oh*ow] = W * cols + bias,
// rectified when `relu`. Per output element this is the explicit GEMM's
// exact float program — the same microtile over the same packed operands,
// ascending k split at kKc, the first block stored and later blocks added —
// with the bias added after the last block, i.e. after the whole GEMM, and
// then tensor::relu's select, all in the tile store's one pass.
void conv_image_forward(const float* image, const ConvGeometry& g, int pad,
                        const float* packed_w, const kernels::GemmMicrokernel& mk,
                        kernels::GemmStoreFn store, const float* bias, bool relu,
                        float* out) {
  auto& scratch = conv_scratch();
  const float* src = image;  // an unpadded stride-1 image is its own layout
  if (pad > 0 || g.stride > 1) {
    scratch.padded.resize(static_cast<std::size_t>(g.c * g.hp * g.stride * g.wq));
    pad_phases_into(image, g, pad, scratch.padded.data());
    src = scratch.padded.data();
  }
  constexpr std::int64_t nr = linalg::kNr;
  scratch.strip.resize(static_cast<std::size_t>(g.patch * nr));
  float* strip = scratch.strip.data();
  const std::int64_t mr = mk.mr;
  const std::int64_t f_tiles = (g.f + mr - 1) / mr;
  const std::int64_t cols = g.oh * g.ow;
  for (std::int64_t j0 = 0; j0 < cols; j0 += nr) {
    const std::int64_t jn = std::min(nr, cols - j0);
    pack_conv_strip(src, g, j0, jn, strip);
    for (std::int64_t kb = 0; kb < g.patch; kb += linalg::kKc) {
      const std::int64_t kc = std::min(linalg::kKc, g.patch - kb);
      const bool first = kb == 0;
      const bool last = kb + kc == g.patch;
      for (std::int64_t it = 0; it < f_tiles; ++it) {
        float acc[kernels::kGemmMaxMr * nr];
        mk.fn(kc, packed_w + f_tiles * mr * kb + it * kc * mr, strip + kb * nr, nr, acc);
        store(acc, std::min(mr, g.f - it * mr), jn, out + it * mr * cols + j0, cols, first,
              last && bias != nullptr ? bias + it * mr : nullptr, last && relu);
      }
    }
  }
}

}  // namespace

// ---- arithmetic -------------------------------------------------------------

Variable add(const Variable& a, const Variable& b) {
  require_same_shape(a, b, "add");
  Tensor out = tensor::add(a.value(), b.value());
  return make_op("add", std::move(out), {a, b}, [a, b](Node& node) mutable {
    if (a.requires_grad()) a.node()->accumulate_grad(node.grad());
    if (b.requires_grad()) b.node()->accumulate_grad(node.grad());
  });
}

Variable sub(const Variable& a, const Variable& b) {
  require_same_shape(a, b, "sub");
  Tensor out = tensor::sub(a.value(), b.value());
  return make_op("sub", std::move(out), {a, b}, [a, b](Node& node) mutable {
    if (a.requires_grad()) a.node()->accumulate_grad(node.grad());
    if (b.requires_grad()) b.node()->grad().add_scaled_(node.grad(), -1.0f);
  });
}

Variable mul(const Variable& a, const Variable& b) {
  require_same_shape(a, b, "mul");
  Tensor out = tensor::mul(a.value(), b.value());
  return make_op("mul", std::move(out), {a, b}, [a, b](Node& node) mutable {
    if (a.requires_grad()) a.node()->accumulate_grad(tensor::mul(node.grad(), b.value()));
    if (b.requires_grad()) b.node()->accumulate_grad(tensor::mul(node.grad(), a.value()));
  });
}

Variable add_scalar(const Variable& a, float s) {
  Tensor out = tensor::add_scalar(a.value(), s);
  return make_op("add_scalar", std::move(out), {a}, [a](Node& node) mutable {
    if (a.requires_grad()) a.node()->accumulate_grad(node.grad());
  });
}

Variable mul_scalar(const Variable& a, float s) {
  Tensor out = tensor::mul_scalar(a.value(), s);
  return make_op("mul_scalar", std::move(out), {a}, [a, s](Node& node) mutable {
    if (a.requires_grad()) a.node()->grad().add_scaled_(node.grad(), s);
  });
}

Variable neg(const Variable& a) { return mul_scalar(a, -1.0f); }

Variable mul_const(const Variable& a, const Tensor& c) {
  if (a.value().numel() != c.numel()) {
    throw std::invalid_argument("mul_const: shape mismatch");
  }
  Tensor out = tensor::mul(a.value(), c);
  const Tensor c_copy = c;  // shares storage; constant by convention
  return make_op("mul_const", std::move(out), {a}, [a, c_copy](Node& node) mutable {
    if (a.requires_grad()) a.node()->accumulate_grad(tensor::mul(node.grad(), c_copy));
  });
}

Variable add_const(const Variable& a, const Tensor& c) {
  if (a.value().numel() != c.numel()) {
    throw std::invalid_argument("add_const: shape mismatch");
  }
  Tensor out = tensor::add(a.value(), c);
  return make_op("add_const", std::move(out), {a}, [a](Node& node) mutable {
    if (a.requires_grad()) a.node()->accumulate_grad(node.grad());
  });
}

Variable straight_through(const Variable& a, const Tensor& forward_value) {
  if (a.value().numel() != forward_value.numel()) {
    throw std::invalid_argument("straight_through: shape mismatch");
  }
  // Clone: the caller's tensor must not alias the graph node's value.
  Tensor out = forward_value.clone();
  return make_op("straight_through", std::move(out), {a}, [a](Node& node) mutable {
    if (a.requires_grad()) a.node()->accumulate_grad(node.grad());
  });
}

// ---- shape ------------------------------------------------------------------

Variable reshape(const Variable& a, Shape new_shape) {
  Tensor out = a.value().clone().reshape(new_shape);
  const Shape old_shape = a.shape();
  return make_op("reshape", std::move(out), {a}, [a, old_shape](Node& node) mutable {
    if (a.requires_grad()) a.node()->accumulate_grad(node.grad().reshape(old_shape));
  });
}

Variable flatten2d(const Variable& a) {
  if (a.shape().rank() != 4) throw std::invalid_argument("flatten2d: expected NCHW");
  const auto n = a.shape()[0];
  const Shape flat = Shape::mat(n, a.value().numel() / n);
  if (!grad_enabled() || !a.requires_grad()) {
    // Inference fast path, mirroring the convolution scratch reuse: reshape
    // shares storage, so the classifier head reads the conv output in place
    // instead of deep-copying the whole feature batch every forward.
    return Variable::constant(a.value().reshape(flat));
  }
  return reshape(a, flat);
}

Variable broadcast_batch(const Variable& a, std::int64_t n) {
  if (a.shape().rank() != 4 || a.shape()[0] != 1) {
    throw std::invalid_argument("broadcast_batch: expected [1,C,H,W]");
  }
  const std::int64_t stride = a.value().numel();
  Tensor out(Shape::nchw(n, a.shape()[1], a.shape()[2], a.shape()[3]));
  for (std::int64_t i = 0; i < n; ++i) {
    std::copy(a.value().data(), a.value().data() + stride, out.data() + i * stride);
  }
  return make_op("broadcast_batch", std::move(out), {a}, [a, n, stride](Node& node) mutable {
    if (!a.requires_grad()) return;
    Tensor da(a.value().shape());
    const float* g = node.grad().data();
    float* d = da.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < stride; ++j) d[j] += g[i * stride + j];
    }
    a.node()->accumulate_grad(da);
  });
}

Variable repeat_batch(const Variable& a, std::int64_t k) {
  if (a.shape().rank() != 4) throw std::invalid_argument("repeat_batch: expected NCHW");
  if (k < 1) throw std::invalid_argument("repeat_batch: k must be >= 1");
  const std::int64_t stride = a.value().numel();
  Tensor out(Shape::nchw(a.shape()[0] * k, a.shape()[1], a.shape()[2], a.shape()[3]));
  for (std::int64_t j = 0; j < k; ++j) {
    std::copy(a.value().data(), a.value().data() + stride, out.data() + j * stride);
  }
  return make_op("repeat_batch", std::move(out), {a}, [a, k, stride](Node& node) mutable {
    if (!a.requires_grad()) return;
    Tensor da(a.value().shape());
    const float* g = node.grad().data();
    float* d = da.data();
    for (std::int64_t j = 0; j < k; ++j) {
      for (std::int64_t i = 0; i < stride; ++i) d[i] += g[j * stride + i];
    }
    a.node()->accumulate_grad(da);
  });
}

// ---- activations ------------------------------------------------------------

Variable relu(const Variable& a) {
  Tensor out = tensor::relu(a.value());
  if (!grad_enabled() || !a.requires_grad()) {
    // Inference fast path, matching conv2d/dense/flatten2d: skip make_op so
    // the serving forward builds neither a parents vector nor a closure.
    return Variable::constant(std::move(out));
  }
  return make_op("relu", std::move(out), {a}, [a](Node& node) mutable {
    if (!a.requires_grad()) return;
    const Tensor mask = tensor::relu_mask(a.value());
    a.node()->accumulate_grad(tensor::mul(node.grad(), mask));
  });
}

// ---- linear layers ----------------------------------------------------------

Variable dense(const Variable& x, const Variable& w, const Variable& b) {
  // One arithmetic path for both modes, so the inference result is bitwise
  // equal to the graph path by construction.
  auto compute = [&] {
    Tensor out = tensor::matmul(x.value(), w.value());
    if (b.defined()) {
      const std::int64_t m = out.dim(0), n = out.dim(1);
      if (b.value().numel() != n) throw std::invalid_argument("dense: bias size mismatch");
      for (std::int64_t i = 0; i < m; ++i) {
        float* row = out.data() + i * n;
        const float* bias = b.value().data();
        for (std::int64_t j = 0; j < n; ++j) row[j] += bias[j];
      }
    }
    return out;
  };
  if (!needs_grad(x, w, b)) {
    // Inference-only path, as in conv2d/depthwise: no graph node is built
    // and the closure never retains x/w/b. Paired with flatten2d's zero-copy
    // fast path, the classifier head adds no autograd allocations to a
    // serving forward.
    return Variable::constant(compute());
  }

  return make_op("dense", compute(), {x, w, b}, [x, w, b](Node& node) mutable {
    const Tensor& g = node.grad();
    if (x.requires_grad()) x.node()->accumulate_grad(tensor::matmul_nt(g, w.value()));
    if (w.requires_grad()) w.node()->accumulate_grad(tensor::matmul_tn(x.value(), g));
    if (b.defined() && b.requires_grad()) {
      const std::int64_t m = g.dim(0), n = g.dim(1);
      Tensor db(Shape::vec(n));
      for (std::int64_t i = 0; i < m; ++i) {
        const float* row = g.data() + i * n;
        for (std::int64_t j = 0; j < n; ++j) db[j] += row[j];
      }
      b.node()->accumulate_grad(db);
    }
  });
}

// ---- convolutions -----------------------------------------------------------

Variable conv2d(const Variable& x, const Variable& w, const Variable& b, int stride,
                int pad, Activation activation) {
  if (x.shape().rank() != 4 || w.shape().rank() != 4) {
    throw std::invalid_argument("conv2d: x must be NCHW, w must be [F,C,kh,kw]");
  }
  if (stride < 1 || pad < 0) {
    throw std::invalid_argument("conv2d: need stride >= 1 and pad >= 0 (got stride " +
                                std::to_string(stride) + ", pad " + std::to_string(pad) + ")");
  }
  const std::int64_t n = x.shape()[0], c = x.shape()[1];
  const std::int64_t f = w.shape()[0];
  const int kh = static_cast<int>(w.shape()[2]);
  const int kw = static_cast<int>(w.shape()[3]);
  if (w.shape()[1] != c) throw std::invalid_argument("conv2d: channel mismatch");
  if (b.defined() && b.value().numel() != f) {
    throw std::invalid_argument("conv2d: bias size mismatch");
  }

  const std::int64_t h = x.shape()[2], wdim = x.shape()[3];
  const std::int64_t hp = h + 2 * pad, wp = wdim + 2 * pad;
  const std::int64_t oh = tensor::conv_out_size(hp, kh, stride);
  const std::int64_t ow = tensor::conv_out_size(wp, kw, stride);
  if (oh <= 0 || ow <= 0) throw std::invalid_argument("conv2d: kernel larger than input");
  const std::int64_t patch = c * kh * kw;

  // One forward for both modes: an implicit GEMM, one image at a time, so no
  // column matrix is written and read back. The weights are packed once per
  // call; each image is padded into per-thread scratch and its column strips
  // are packed straight from the padded planes into an L1-resident tile.
  // Parallel over images only, so a batch-1 call runs on its calling thread:
  // fanning one image out over the pool did not pay at batch 1 (README
  // "Implicit-GEMM conv forward"). The tile store adds the bias and, fused,
  // applies the ReLU as it writes each tile, so neither is a separate pass.
  const util::KernelTarget target = util::active_kernel_target();
  const kernels::GemmMicrokernel& mk = kernels::gemm_microkernel(target);
  const kernels::GemmStoreFn store = kernels::gemm_store(target);
  const std::int64_t mr = mk.mr;
  const ConvGeometry g{c, hp, wp, kh, kw, stride, oh, ow, f, patch, (wp + stride - 1) / stride};
  auto& packed = conv_scratch().packed_w;
  packed.resize(static_cast<std::size_t>((f + mr - 1) / mr * mr * patch));
  pack_conv_weights(w.value().data(), f, patch, mr, packed.data());
  const float* packed_w = packed.data();
  const float* bias = b.defined() ? b.value().data() : nullptr;
  const bool relu = activation == Activation::kRelu;
  const float* xv = x.value().data();
  Tensor out(Shape::nchw(n, f, oh, ow));
  util::parallel_for(n, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t in = n0; in < n1; ++in) {
      conv_image_forward(xv + in * c * h * wdim, g, pad, packed_w, mk, store, bias, relu,
                         out.data() + in * f * oh * ow);
    }
  }, /*min_chunk=*/1);

  if (!needs_grad(x, w, b)) return Variable::constant(std::move(out));

  return make_op(
      relu ? "conv2d_relu" : "conv2d", std::move(out), {x, w, b},
      [x, w, b, n, c, f, kh, kw, stride, pad, hp, wp, oh, ow, patch, relu](Node& node) mutable {
        // Fused, the node stands for conv2d -> relu. That chain hands the conv
        // node 0 + g * relu_mask(pre): relu's backward multiplies by the mask
        // and accumulate_grad adds the product into a zeroed gradient. The
        // pre-activation is > 0 exactly where the stored output is, so the
        // mask comes from the node's value, and the same float ops make
        // dX/dW/db bitwise the chain's (a masked -g arrives as +0, a masked
        // NaN or Inf g as NaN).
        Tensor masked;
        if (relu) {
          masked = Tensor(node.value().shape());
          const float* up = node.grad().data();
          const float* v = node.value().data();
          float* dst = masked.data();
          for (std::int64_t i = 0; i < masked.numel(); ++i) {
            dst[i] = 0.0f + up[i] * (v[i] > 0 ? 1.0f : 0.0f);
          }
        }
        const Tensor& g = relu ? masked : node.grad();  // [n, f, oh, ow]
        if (w.requires_grad()) {
          // dW[f, patch] accumulates G_in * Cols_in^T across the batch. The
          // column matrix is built here, not kept from the forward, so only
          // a backward that needs dW pays for it.
          const Tensor cols =
              tensor::im2col(tensor::pad2d(x.value(), pad, pad), kh, kw, stride, stride);
          Tensor dw(w.value().shape());
          float* dwp = dw.data();
          for (std::int64_t in = 0; in < n; ++in) {
            linalg::sgemm_nt(f, patch, oh * ow, g.data() + in * f * oh * ow,
                             cols.data() + in * patch * oh * ow, dwp,
                             /*accumulate=*/true);
          }
          w.node()->accumulate_grad(dw);
        }
        if (b.defined() && b.requires_grad()) {
          b.node()->accumulate_grad(tensor::reduce_nhw(g));
        }
        if (x.requires_grad()) {
          Tensor dcols(Shape{n, patch, oh * ow});
          const float* wdata = w.value().data();
          util::parallel_for(n, [&](std::int64_t n0, std::int64_t n1) {
            for (std::int64_t in = n0; in < n1; ++in) {
              // dCols_in[patch, oh*ow] = W^T * G_in, W stored [f, patch].
              linalg::sgemm_tn(patch, oh * ow, f, wdata,
                               g.data() + in * f * oh * ow,
                               dcols.data() + in * patch * oh * ow,
                               /*accumulate=*/false);
            }
          }, /*min_chunk=*/1);
          Tensor dxp = tensor::col2im(dcols, n, c, hp, wp, kh, kw, stride, stride);
          x.node()->accumulate_grad(tensor::unpad2d(dxp, pad, pad));
        }
      });
}

Variable depthwise_conv2d_same(const Variable& x, const Variable& w, const Variable& b) {
  if (x.shape().rank() != 4 || w.shape().rank() != 3) {
    throw std::invalid_argument("depthwise_conv2d_same: x NCHW, w [C,kh,kw]");
  }
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2],
                     wdim = x.shape()[3];
  if (w.shape()[0] != c) throw std::invalid_argument("depthwise_conv2d_same: channel mismatch");
  if (b.defined() && b.value().numel() != c) {
    throw std::invalid_argument("depthwise_conv2d_same: bias size mismatch");
  }
  const int kh = static_cast<int>(w.shape()[1]);
  const int kw = static_cast<int>(w.shape()[2]);
  const int ph = kh / 2, pw = kw / 2;

  // One forward for both modes: pad the input into per-thread scratch once
  // so the tap loops need no border checks. The padding contributes exact
  // ±0.0 terms, which leave every partial sum bitwise unchanged.
  const std::int64_t hp = h + 2 * ph, wp = wdim + 2 * pw;
  auto& scratch = conv_scratch();
  scratch.padded.resize(static_cast<std::size_t>(n * c * hp * wp));
  tensor::pad2d_into(x.value().data(), n * c, h, wdim, ph, pw, scratch.padded.data());
  const float* padded = scratch.padded.data();
  Tensor out(x.shape());
  const float* wv = w.value().data();
  // The per-row tap loop is kernel-dispatched; every target keeps the
  // double accumulator and ascending (fy, fx) tap order, so results are
  // bitwise identical across targets.
  const kernels::TapRowFn taps = kernels::tap_row(util::active_kernel_target());
  util::parallel_for(n * c, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t ic = p % c;
      const float* src = padded + p * hp * wp;
      const float* ker = wv + ic * kh * kw;
      float* dst = out.data() + p * h * wdim;
      for (std::int64_t y = 0; y < h; ++y) {
        taps(src + y * wp, wp, ker, kh, kw, dst + y * wdim, wdim);
      }
    }
  }, /*min_chunk=*/1);
  if (b.defined()) out = tensor::broadcast_bias_nchw(out, b.value());

  if (!needs_grad(x, w, b)) return Variable::constant(std::move(out));

  return make_op(
      "depthwise_conv2d", std::move(out), {x, w, b},
      [x, w, b, n, c, h, wdim, hp, wp, kh, kw, ph, pw](Node& node) mutable {
        // Both halves run on padded buffers, as the forward does, so no tap
        // needs a border check. A padding cell adds an exact ±0 product to a
        // sum that starts at +0, which leaves its bits unchanged for finite
        // values; a NaN/Inf tap or gradient propagates per IEEE.
        const Tensor& g = node.grad();
        if (b.defined() && b.requires_grad()) {
          b.node()->accumulate_grad(tensor::reduce_nhw(g));
        }
        if (w.requires_grad()) {
          auto& padded = conv_scratch().padded;
          padded.resize(static_cast<std::size_t>(n * c * hp * wp));
          tensor::pad2d_into(x.value().data(), n * c, h, wdim, ph, pw, padded.data());
          const float* xp = padded.data();
          Tensor dw(w.value().shape());
          // Parallel over channels; each channel sums its images in
          // ascending n, one float add of a double tap sum per image.
          util::parallel_for(c, [&](std::int64_t c0, std::int64_t c1) {
            for (std::int64_t ic = c0; ic < c1; ++ic) {
              float* dker = dw.data() + ic * kh * kw;
              for (std::int64_t in = 0; in < n; ++in) {
                const float* src = xp + (in * c + ic) * hp * wp;
                const float* gp = g.data() + (in * c + ic) * h * wdim;
                for (int fy = 0; fy < kh; ++fy) {
                  for (int fx = 0; fx < kw; ++fx) {
                    double acc = 0.0;
                    for (std::int64_t y = 0; y < h; ++y) {
                      const float* srow = src + (y + fy) * wp + fx;
                      const float* grow = gp + y * wdim;
                      for (std::int64_t xx = 0; xx < wdim; ++xx) {
                        acc += static_cast<double>(grow[xx]) * srow[xx];
                      }
                    }
                    dker[fy * kw + fx] += static_cast<float>(acc);
                  }
                }
              }
            }
          }, /*min_chunk=*/1);
          w.node()->accumulate_grad(dw);
        }
        if (x.requires_grad()) {
          Tensor dx(x.value().shape());
          const float* wv = w.value().data();
          util::parallel_for(n * c, [&](std::int64_t p0, std::int64_t p1) {
            auto& plane = conv_scratch().padded;
            plane.resize(static_cast<std::size_t>(hp * wp));
            for (std::int64_t p = p0; p < p1; ++p) {
              const float* ker = wv + (p % c) * kh * kw;
              const float* gp = g.data() + p * h * wdim;
              // Correlation adjoint: scatter each output grad through the
              // kernel into a zeroed padded plane. Every element receives its
              // products in the order of a row-major scatter over outputs
              // (y ascending, then x ascending, so fx descending), and the
              // inner loop runs over contiguous outputs.
              std::fill(plane.begin(), plane.end(), 0.0f);
              for (std::int64_t y = 0; y < h; ++y) {
                const float* grow = gp + y * wdim;
                for (int fy = 0; fy < kh; ++fy) {
                  for (int fx = kw - 1; fx >= 0; --fx) {
                    const float k = ker[fy * kw + fx];
                    float* drow = plane.data() + (y + fy) * wp + fx;
                    for (std::int64_t xx = 0; xx < wdim; ++xx) drow[xx] += k * grow[xx];
                  }
                }
              }
              float* dst = dx.data() + p * h * wdim;
              for (std::int64_t y = 0; y < h; ++y) {
                const float* interior = plane.data() + (y + ph) * wp + pw;
                std::copy(interior, interior + wdim, dst + y * wdim);
              }
            }
          }, /*min_chunk=*/1);
          x.node()->accumulate_grad(dx);
        }
      });
}

// ---- reductions & norms -------------------------------------------------------

Variable sum(const Variable& a) {
  Tensor out = Tensor::scalar(a.value().sum());
  return make_op("sum", std::move(out), {a}, [a](Node& node) mutable {
    if (!a.requires_grad()) return;
    const float g = node.grad()[0];
    a.node()->accumulate_grad(Tensor::full(a.value().shape(), g));
  });
}

Variable mean(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.value().numel());
  Tensor out = Tensor::scalar(a.value().mean());
  return make_op("mean", std::move(out), {a}, [a, inv](Node& node) mutable {
    if (!a.requires_grad()) return;
    const float g = node.grad()[0] * inv;
    a.node()->accumulate_grad(Tensor::full(a.value().shape(), g));
  });
}

Variable sum_squares(const Variable& a) {
  double acc = 0.0;
  const float* p = a.value().data();
  for (std::int64_t i = 0; i < a.value().numel(); ++i) acc += static_cast<double>(p[i]) * p[i];
  Tensor out = Tensor::scalar(static_cast<float>(acc));
  return make_op("sum_squares", std::move(out), {a}, [a](Node& node) mutable {
    if (!a.requires_grad()) return;
    const float g = node.grad()[0];
    a.node()->grad().add_scaled_(a.value(), 2.0f * g);
  });
}

Variable l1_norm(const Variable& a) {
  double acc = 0.0;
  const float* p = a.value().data();
  for (std::int64_t i = 0; i < a.value().numel(); ++i) acc += std::fabs(p[i]);
  Tensor out = Tensor::scalar(static_cast<float>(acc));
  return make_op("l1_norm", std::move(out), {a}, [a](Node& node) mutable {
    if (!a.requires_grad()) return;
    const float g = node.grad()[0];
    a.node()->accumulate_grad(tensor::mul_scalar(tensor::sign(a.value()), g));
  });
}

Variable l2_norm(const Variable& a) {
  const double norm = a.value().l2_norm();
  Tensor out = Tensor::scalar(static_cast<float>(norm));
  return make_op("l2_norm", std::move(out), {a}, [a, norm](Node& node) mutable {
    if (!a.requires_grad()) return;
    const float g = node.grad()[0];
    const float scale = g / static_cast<float>(std::max(norm, 1e-12));
    a.node()->grad().add_scaled_(a.value(), scale);
  });
}

// ---- losses -------------------------------------------------------------------

Variable softmax_cross_entropy(const Variable& logits, const std::vector<int>& labels) {
  if (logits.shape().rank() != 2) {
    throw std::invalid_argument("softmax_cross_entropy: logits must be [N,K]");
  }
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  if (static_cast<std::int64_t>(labels.size()) != n) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }
  for (int label : labels) {
    if (label < 0 || label >= k) {
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    }
  }
  const Tensor log_probs = tensor::log_softmax_rows(logits.value());
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    loss -= log_probs[i * k + labels[static_cast<std::size_t>(i)]];
  }
  loss /= static_cast<double>(n);
  Tensor out = Tensor::scalar(static_cast<float>(loss));
  const auto labels_copy = std::make_shared<std::vector<int>>(labels);
  return make_op("softmax_ce", std::move(out), {logits},
                 [logits, labels_copy, n, k](Node& node) mutable {
                   if (!logits.requires_grad()) return;
                   const float g = node.grad()[0] / static_cast<float>(n);
                   Tensor probs = tensor::softmax_rows(logits.value());
                   for (std::int64_t i = 0; i < n; ++i) {
                     probs[i * k + (*labels_copy)[static_cast<std::size_t>(i)]] -= 1.0f;
                   }
                   probs.scale_(g);
                   logits.node()->accumulate_grad(probs);
                 });
}

Variable tv_loss(const Variable& x) {
  if (x.shape().rank() != 4) throw std::invalid_argument("tv_loss: expected NCHW");
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], w = x.shape()[3];
  const float scale = 1.0f / static_cast<float>(n * c);
  const float* xv = x.value().data();
  double acc = 0.0;
  for (std::int64_t p = 0; p < n * c; ++p) {
    const float* plane = xv + p * h * w;
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t xx = 0; xx < w; ++xx) {
        if (y + 1 < h) acc += std::fabs(plane[(y + 1) * w + xx] - plane[y * w + xx]);
        if (xx + 1 < w) acc += std::fabs(plane[y * w + xx + 1] - plane[y * w + xx]);
      }
    }
  }
  Tensor out = Tensor::scalar(static_cast<float>(acc) * scale);
  return make_op("tv_loss", std::move(out), {x}, [x, n, c, h, w, scale](Node& node) mutable {
    if (!x.requires_grad()) return;
    const float g = node.grad()[0] * scale;
    Tensor dx(x.value().shape());
    const float* xv2 = x.value().data();
    for (std::int64_t p = 0; p < n * c; ++p) {
      const float* plane = xv2 + p * h * w;
      float* dplane = dx.data() + p * h * w;
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t xx = 0; xx < w; ++xx) {
          if (y + 1 < h) {
            const float d = plane[(y + 1) * w + xx] - plane[y * w + xx];
            const float s = g * (d > 0 ? 1.0f : (d < 0 ? -1.0f : 0.0f));
            dplane[(y + 1) * w + xx] += s;
            dplane[y * w + xx] -= s;
          }
          if (xx + 1 < w) {
            const float d = plane[y * w + xx + 1] - plane[y * w + xx];
            const float s = g * (d > 0 ? 1.0f : (d < 0 ? -1.0f : 0.0f));
            dplane[y * w + xx + 1] += s;
            dplane[y * w + xx] -= s;
          }
        }
      }
    }
    x.node()->accumulate_grad(dx);
  });
}

Variable tikhonov_rows(const Variable& x, const Tensor& l_operator) {
  if (x.shape().rank() != 4) throw std::invalid_argument("tikhonov_rows: expected NCHW");
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], w = x.shape()[3];
  if (l_operator.rank() != 2 || l_operator.dim(0) != h || l_operator.dim(1) != h) {
    throw std::invalid_argument("tikhonov_rows: operator must be HxH");
  }
  const float scale = 1.0f / static_cast<float>(n * c);
  const float* lv = l_operator.data();
  const float* xv = x.value().data();
  // G[p] = L * F[p]; loss = scale * sum ||G||^2. Parallelism lands on the
  // coarse plane loop (the per-plane GEMMs are tiny and run nested-inline);
  // each plane's squared sum is stored by index and reduced in plane order,
  // so the total is identical for any worker count.
  Tensor g_all(Shape{n * c, h, w});
  std::vector<double> plane_sq(static_cast<std::size_t>(n * c));
  util::parallel_for(n * c, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      float* gp = g_all.data() + p * h * w;
      linalg::sgemm_nn(h, w, h, lv, xv + p * h * w, gp, /*accumulate=*/false);
      double sq = 0.0;
      for (std::int64_t i = 0; i < h * w; ++i) sq += static_cast<double>(gp[i]) * gp[i];
      plane_sq[static_cast<std::size_t>(p)] = sq;
    }
  }, /*min_chunk=*/1);
  double acc = 0.0;
  for (const double sq : plane_sq) acc += sq;
  Tensor out = Tensor::scalar(static_cast<float>(acc) * scale);
  const Tensor l_copy = l_operator;
  return make_op("tikhonov_rows", std::move(out), {x},
                 [x, l_copy, g_all, n, c, h, w, scale](Node& node) mutable {
                   if (!x.requires_grad()) return;
                   const float g = node.grad()[0] * 2.0f * scale;
                   // dF = 2*scale * L^T * G
                   Tensor dx(x.value().shape());
                   util::parallel_for(n * c, [&](std::int64_t p0, std::int64_t p1) {
                     for (std::int64_t p = p0; p < p1; ++p) {
                       linalg::sgemm_tn(h, w, h, l_copy.data(),
                                        g_all.data() + p * h * w,
                                        dx.data() + p * h * w, /*accumulate=*/false);
                     }
                   }, /*min_chunk=*/1);
                   dx.scale_(g);
                   x.node()->accumulate_grad(dx);
                 });
}

Variable tikhonov_elementwise(const Variable& x, const Tensor& p_operator) {
  if (x.shape().rank() != 4) throw std::invalid_argument("tikhonov_elementwise: expected NCHW");
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], w = x.shape()[3];
  if (p_operator.numel() != h * w) {
    throw std::invalid_argument("tikhonov_elementwise: operator must be HxW");
  }
  const float scale = 1.0f / static_cast<float>(n * c);
  const float* pv = p_operator.data();
  const float* xv = x.value().data();
  double acc = 0.0;
  for (std::int64_t p = 0; p < n * c; ++p) {
    const float* plane = xv + p * h * w;
    for (std::int64_t i = 0; i < h * w; ++i) {
      const double t = static_cast<double>(pv[i]) * plane[i];
      acc += t * t;
    }
  }
  Tensor out = Tensor::scalar(static_cast<float>(acc) * scale);
  const Tensor p_copy = p_operator;
  return make_op("tikhonov_elem", std::move(out), {x},
                 [x, p_copy, n, c, h, w, scale](Node& node) mutable {
                   if (!x.requires_grad()) return;
                   const float g = node.grad()[0] * 2.0f * scale;
                   Tensor dx(x.value().shape());
                   const float* xv2 = x.value().data();
                   const float* pv2 = p_copy.data();
                   for (std::int64_t p = 0; p < n * c; ++p) {
                     const float* plane = xv2 + p * h * w;
                     float* dplane = dx.data() + p * h * w;
                     for (std::int64_t i = 0; i < h * w; ++i) {
                       dplane[i] = g * pv2[i] * pv2[i] * plane[i];
                     }
                   }
                   x.node()->accumulate_grad(dx);
                 });
}

Variable linf_per_channel(const Variable& w) {
  if (w.shape().rank() != 3) throw std::invalid_argument("linf_per_channel: expected [C,kh,kw]");
  const std::int64_t c = w.shape()[0];
  const std::int64_t plane = w.shape()[1] * w.shape()[2];
  const float* wv = w.value().data();
  auto argmaxes = std::make_shared<std::vector<std::int64_t>>(static_cast<std::size_t>(c));
  double acc = 0.0;
  for (std::int64_t ic = 0; ic < c; ++ic) {
    const float* p = wv + ic * plane;
    std::int64_t best = 0;
    for (std::int64_t i = 1; i < plane; ++i) {
      if (std::fabs(p[i]) > std::fabs(p[best])) best = i;
    }
    (*argmaxes)[static_cast<std::size_t>(ic)] = ic * plane + best;
    acc += std::fabs(p[best]);
  }
  Tensor out = Tensor::scalar(static_cast<float>(acc));
  return make_op("linf_per_channel", std::move(out), {w}, [w, argmaxes](Node& node) mutable {
    if (!w.requires_grad()) return;
    const float g = node.grad()[0];
    Tensor dw(w.value().shape());
    const float* wv2 = w.value().data();
    for (const auto idx : *argmaxes) {
      const float v = wv2[idx];
      dw[idx] += g * (v > 0 ? 1.0f : (v < 0 ? -1.0f : 0.0f));
    }
    w.node()->accumulate_grad(dw);
  });
}

// ---- attack-specific ops --------------------------------------------------------

Affine2D Affine2D::rotation_scale_about_center(double angle_rad, double scale, double dx,
                                               double dy, int height, int width) {
  // Forward model: p_out = s*R(theta)*(p_in - c) + c + t.
  // We need the inverse map (output -> input):
  //   p_in = R(-theta)*(p_out - c - t)/s + c.
  const double cx = (width - 1) / 2.0;
  const double cy = (height - 1) / 2.0;
  const double cos_t = std::cos(angle_rad);
  const double sin_t = std::sin(angle_rad);
  const double inv_s = 1.0 / scale;
  Affine2D a;
  a.m00 = cos_t * inv_s;
  a.m01 = sin_t * inv_s;
  a.m10 = -sin_t * inv_s;
  a.m11 = cos_t * inv_s;
  a.tx = cx - (cos_t * (cx + dx) + sin_t * (cy + dy)) * inv_s;
  a.ty = cy - (-sin_t * (cx + dx) + cos_t * (cy + dy)) * inv_s;
  return a;
}

Variable affine_warp(const Variable& x, const std::vector<Affine2D>& transforms) {
  if (x.shape().rank() != 4) throw std::invalid_argument("affine_warp: expected NCHW");
  const std::int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], w = x.shape()[3];
  if (static_cast<std::int64_t>(transforms.size()) != n) {
    throw std::invalid_argument("affine_warp: need one transform per batch row (" +
                                std::to_string(transforms.size()) + " transforms for batch " +
                                std::to_string(n) + ")");
  }
  Tensor out(x.shape());
  const float* xv = x.value().data();
  // The forward per-row gather+lerp is kernel-dispatched; every target
  // evaluates the inverse map, weights, and tap sum in the same double op
  // order with out-of-bounds taps contributing exact +0, so results are
  // bitwise identical across targets. Forward and backward run in parallel
  // over planes; a plane reads and writes only its own rows.
  const kernels::WarpRowFn warp =
      kernels::warp_row(util::active_kernel_target());
  util::parallel_for(n * c, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const Affine2D& t = transforms[static_cast<std::size_t>(p / c)];
      const kernels::WarpCoeffs coeffs{t.m00, t.m01, t.tx, t.m10, t.m11, t.ty};
      const float* src = xv + p * h * w;
      float* dst = out.data() + p * h * w;
      for (std::int64_t y = 0; y < h; ++y) {
        warp(src, h, w, coeffs, y, dst + y * w);
      }
    }
  }, /*min_chunk=*/1);
  return make_op("affine_warp", std::move(out), {x},
                 [x, transforms, n, c, h, w](Node& node) mutable {
    if (!x.requires_grad()) return;
    Tensor dx(x.value().shape());
    const float* g = node.grad().data();
    util::parallel_for(n * c, [&](std::int64_t p0, std::int64_t p1) {
      for (std::int64_t p = p0; p < p1; ++p) {
        const Affine2D& t = transforms[static_cast<std::size_t>(p / c)];
        const float* gp = g + p * h * w;
        float* dst = dx.data() + p * h * w;
        for (std::int64_t y = 0; y < h; ++y) {
          for (std::int64_t xx = 0; xx < w; ++xx) {
            const float gv = gp[y * w + xx];
            const double in_x = t.m00 * xx + t.m01 * y + t.tx;
            const double in_y = t.m10 * xx + t.m11 * y + t.ty;
            const std::int64_t x0 = static_cast<std::int64_t>(std::floor(in_x));
            const std::int64_t y0 = static_cast<std::int64_t>(std::floor(in_y));
            const double fx = in_x - x0;
            const double fy = in_y - y0;
            for (int dyi = 0; dyi <= 1; ++dyi) {
              const std::int64_t sy = y0 + dyi;
              if (sy < 0 || sy >= h) continue;
              const double wy = dyi ? fy : 1.0 - fy;
              for (int dxi = 0; dxi <= 1; ++dxi) {
                const std::int64_t sx = x0 + dxi;
                if (sx < 0 || sx >= w) continue;
                const double wx = dxi ? fx : 1.0 - fx;
                dst[sy * w + sx] += static_cast<float>(wy * wx * gv);
              }
            }
          }
        }
      }
    }, /*min_chunk=*/1);
    x.node()->accumulate_grad(dx);
  });
}

Variable affine_warp(const Variable& x, const Affine2D& t) {
  if (x.shape().rank() != 4) throw std::invalid_argument("affine_warp: expected NCHW");
  // Same taps, same arithmetic: one transform for every row is bitwise
  // identical to the per-sample path with n equal transforms.
  return affine_warp(x, std::vector<Affine2D>(static_cast<std::size_t>(x.shape()[0]), t));
}

Variable dct_lowpass(const Variable& x, int dim) {
  if (x.shape().rank() != 4) throw std::invalid_argument("dct_lowpass: expected NCHW");
  Tensor out = signal::dct_lowpass_nchw(x.value(), dim);
  return make_op("dct_lowpass", std::move(out), {x}, [x, dim](Node& node) mutable {
    if (!x.requires_grad()) return;
    // Orthonormal projection => self-adjoint: the adjoint is the projection
    // itself applied to the upstream gradient.
    x.node()->accumulate_grad(signal::dct_lowpass_nchw(node.grad(), dim));
  });
}

Variable nps_loss(const Variable& x, const Tensor& palette) {
  if (x.shape().rank() != 4 || x.shape()[1] != 3) {
    throw std::invalid_argument("nps_loss: expected [N,3,H,W]");
  }
  if (palette.rank() != 2 || palette.dim(1) != 3 || palette.dim(0) < 1) {
    throw std::invalid_argument("nps_loss: palette must be [P,3]");
  }
  const std::int64_t n = x.shape()[0], h = x.shape()[2], w = x.shape()[3];
  const std::int64_t plane = h * w;
  const std::int64_t num_colors = palette.dim(0);
  const float* xv = x.value().data();
  const float* pv = palette.data();
  double acc = 0.0;
  for (std::int64_t in = 0; in < n; ++in) {
    const float* r = xv + (in * 3 + 0) * plane;
    const float* g = xv + (in * 3 + 1) * plane;
    const float* b = xv + (in * 3 + 2) * plane;
    for (std::int64_t i = 0; i < plane; ++i) {
      double prod = 1.0;
      for (std::int64_t j = 0; j < num_colors; ++j) {
        const double d = (std::fabs(r[i] - pv[j * 3 + 0]) + std::fabs(g[i] - pv[j * 3 + 1]) +
                          std::fabs(b[i] - pv[j * 3 + 2])) /
                         3.0;
        prod *= d;
      }
      acc += prod;
    }
  }
  const double inv_count = 1.0 / static_cast<double>(n * plane);
  Tensor out = Tensor::scalar(static_cast<float>(acc * inv_count));
  const Tensor pal = palette;
  return make_op("nps_loss", std::move(out), {x},
                 [x, pal, n, h, w, plane, num_colors, inv_count](Node& node) mutable {
                   if (!x.requires_grad()) return;
                   const double gscale = static_cast<double>(node.grad()[0]) * inv_count;
                   Tensor dx(x.value().shape());
                   const float* xv2 = x.value().data();
                   const float* pv2 = pal.data();
                   std::vector<double> dist(static_cast<std::size_t>(num_colors));
                   for (std::int64_t in = 0; in < n; ++in) {
                     const float* chan[3] = {xv2 + (in * 3 + 0) * plane,
                                             xv2 + (in * 3 + 1) * plane,
                                             xv2 + (in * 3 + 2) * plane};
                     float* dchan[3] = {dx.data() + (in * 3 + 0) * plane,
                                        dx.data() + (in * 3 + 1) * plane,
                                        dx.data() + (in * 3 + 2) * plane};
                     for (std::int64_t i = 0; i < plane; ++i) {
                       for (std::int64_t j = 0; j < num_colors; ++j) {
                         dist[static_cast<std::size_t>(j)] =
                             (std::fabs(chan[0][i] - pv2[j * 3 + 0]) +
                              std::fabs(chan[1][i] - pv2[j * 3 + 1]) +
                              std::fabs(chan[2][i] - pv2[j * 3 + 2])) /
                             3.0;
                       }
                       // prod_except[j] = prod_{k != j} dist[k], via prefix/suffix.
                       for (std::int64_t j = 0; j < num_colors; ++j) {
                         double prod_except = 1.0;
                         for (std::int64_t k = 0; k < num_colors; ++k) {
                           if (k != j) prod_except *= dist[static_cast<std::size_t>(k)];
                         }
                         for (int ch = 0; ch < 3; ++ch) {
                           const double diff = chan[ch][i] - pv2[j * 3 + ch];
                           const double s = diff > 0 ? 1.0 : (diff < 0 ? -1.0 : 0.0);
                           dchan[ch][i] += static_cast<float>(gscale * prod_except * s / 3.0);
                         }
                       }
                     }
                   }
                   x.node()->accumulate_grad(dx);
                 });
}

}  // namespace blurnet::autograd
