#include "src/signal/dct.h"

#include <cmath>
#include <stdexcept>

namespace blurnet::signal {

namespace {

// Direct O(n^2) orthonormal transforms. The planes involved are <= 32x32, so
// the matrix form is both fast enough and trivially correct.
void dct1d_into(const double* x, double* out, int n, bool inverse) {
  const double scale0 = std::sqrt(1.0 / n);
  const double scale = std::sqrt(2.0 / n);
  if (!inverse) {
    for (int k = 0; k < n; ++k) {
      double acc = 0.0;
      for (int i = 0; i < n; ++i) {
        acc += x[i] * std::cos(M_PI * (2.0 * i + 1.0) * k / (2.0 * n));
      }
      out[k] = (k == 0 ? scale0 : scale) * acc;
    }
  } else {
    for (int i = 0; i < n; ++i) {
      double acc = scale0 * x[0];
      for (int k = 1; k < n; ++k) {
        acc += scale * x[k] * std::cos(M_PI * (2.0 * i + 1.0) * k / (2.0 * n));
      }
      out[i] = acc;
    }
  }
}

std::vector<double> transform2d(const std::vector<double>& x, int height, int width,
                                bool inverse) {
  if (static_cast<std::size_t>(height) * static_cast<std::size_t>(width) != x.size()) {
    throw std::invalid_argument("dct2d: size mismatch");
  }
  std::vector<double> tmp(x.size());
  std::vector<double> out(x.size());
  // Rows.
  for (int y = 0; y < height; ++y) {
    dct1d_into(x.data() + static_cast<std::size_t>(y) * width,
               tmp.data() + static_cast<std::size_t>(y) * width, width, inverse);
  }
  // Columns.
  std::vector<double> col(static_cast<std::size_t>(height));
  std::vector<double> col_out(static_cast<std::size_t>(height));
  for (int xcol = 0; xcol < width; ++xcol) {
    for (int y = 0; y < height; ++y) col[static_cast<std::size_t>(y)] = tmp[static_cast<std::size_t>(y) * width + xcol];
    dct1d_into(col.data(), col_out.data(), height, inverse);
    for (int y = 0; y < height; ++y) out[static_cast<std::size_t>(y) * width + xcol] = col_out[static_cast<std::size_t>(y)];
  }
  return out;
}

}  // namespace

std::vector<double> dct1d(const std::vector<double>& x) {
  std::vector<double> out(x.size());
  dct1d_into(x.data(), out.data(), static_cast<int>(x.size()), false);
  return out;
}

std::vector<double> idct1d(const std::vector<double>& x) {
  std::vector<double> out(x.size());
  dct1d_into(x.data(), out.data(), static_cast<int>(x.size()), true);
  return out;
}

std::vector<double> dct2d(const std::vector<double>& x, int height, int width) {
  return transform2d(x, height, width, false);
}

std::vector<double> idct2d(const std::vector<double>& x, int height, int width) {
  return transform2d(x, height, width, true);
}

tensor::Tensor dct_lowpass_nchw(const tensor::Tensor& x, int dim) {
  if (x.rank() != 4) throw std::invalid_argument("dct_lowpass_nchw: expected NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  const int h = static_cast<int>(x.dim(2));
  const int w = static_cast<int>(x.dim(3));
  tensor::Tensor out(x.shape());
  std::vector<double> plane(static_cast<std::size_t>(h) * w);
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t ic = 0; ic < c; ++ic) {
      const float* src = x.data() + (in * c + ic) * h * w;
      for (std::size_t i = 0; i < plane.size(); ++i) plane[i] = src[i];
      auto coeffs = dct2d(plane, h, w);
      for (int y = 0; y < h; ++y) {
        for (int xx = 0; xx < w; ++xx) {
          if (y >= dim || xx >= dim) coeffs[static_cast<std::size_t>(y) * w + xx] = 0.0;
        }
      }
      const auto filtered = idct2d(coeffs, h, w);
      float* dst = out.data() + (in * c + ic) * h * w;
      for (std::size_t i = 0; i < plane.size(); ++i) dst[i] = static_cast<float>(filtered[i]);
    }
  }
  return out;
}

double dct_lowfreq_energy_fraction(const std::vector<double>& plane, int height,
                                   int width, int dim) {
  const auto coeffs = dct2d(plane, height, width);
  double total = 0.0, low = 0.0;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const double e = coeffs[static_cast<std::size_t>(y) * width + x] *
                       coeffs[static_cast<std::size_t>(y) * width + x];
      total += e;
      if (y < dim && x < dim) low += e;
    }
  }
  return total > 0 ? low / total : 0.0;
}

}  // namespace blurnet::signal
