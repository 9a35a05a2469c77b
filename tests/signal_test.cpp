#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/signal/dct.h"
#include "src/signal/fft.h"
#include "src/signal/kernels.h"
#include "src/signal/spectrum.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/test_helpers.h"

namespace blurnet::signal {
namespace {

std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0, 0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * M_PI * static_cast<double>(k * t) / static_cast<double>(n);
      acc += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

// FFT vs naive DFT across power-of-two and Bluestein sizes.
class FftMatchesDft : public ::testing::TestWithParam<int> {};

TEST_P(FftMatchesDft, AllSizes) {
  const int n = GetParam();
  util::Rng rng(n);
  std::vector<Complex> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  const auto fast = fft(x);
  const auto slow = naive_dft(x);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(fast[static_cast<std::size_t>(i)].real(), slow[static_cast<std::size_t>(i)].real(), 1e-8);
    EXPECT_NEAR(fast[static_cast<std::size_t>(i)].imag(), slow[static_cast<std::size_t>(i)].imag(), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftMatchesDft,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 3, 5, 7, 12, 15, 33));

TEST(Fft, InverseRoundTrip) {
  util::Rng rng(77);
  for (const int n : {8, 13, 32}) {
    std::vector<Complex> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = Complex(rng.normal(), rng.normal());
    const auto back = ifft(fft(x));
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(back[static_cast<std::size_t>(i)].real(), x[static_cast<std::size_t>(i)].real(), 1e-9);
      EXPECT_NEAR(back[static_cast<std::size_t>(i)].imag(), x[static_cast<std::size_t>(i)].imag(), 1e-9);
    }
  }
}

TEST(Fft, ParsevalHolds) {
  util::Rng rng(78);
  const int n = 64;
  std::vector<double> x(n);
  double time_energy = 0;
  for (auto& v : x) {
    v = rng.normal();
    time_energy += v * v;
  }
  const auto spectrum = fft_real(x);
  double freq_energy = 0;
  for (const auto& v : spectrum) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-8);
}

TEST(Fft, DcBinIsSum) {
  const std::vector<double> x = {1, 2, 3, 4};
  const auto spectrum = fft_real(x);
  EXPECT_NEAR(spectrum[0].real(), 10.0, 1e-10);
  EXPECT_NEAR(spectrum[0].imag(), 0.0, 1e-10);
}

TEST(Fft2d, RoundTrip) {
  util::Rng rng(79);
  const int h = 8, w = 8;
  std::vector<Complex> x(static_cast<std::size_t>(h) * w);
  for (auto& v : x) v = Complex(rng.normal(), 0.0);
  const auto freq = fft2d(x, h, w, false);
  const auto back = fft2d(freq, h, w, true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9);
  }
}

TEST(Fft, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(12));
}

TEST(Dct, RoundTrip1d) {
  util::Rng rng(80);
  for (const int n : {4, 16, 31}) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.normal();
    const auto back = idct1d(dct1d(x));
    for (int i = 0; i < n; ++i) EXPECT_NEAR(back[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(Dct, EnergyPreserved) {
  util::Rng rng(81);
  std::vector<double> x(16);
  double energy = 0;
  for (auto& v : x) {
    v = rng.normal();
    energy += v * v;
  }
  double coeff_energy = 0;
  for (const double c : dct1d(x)) coeff_energy += c * c;
  EXPECT_NEAR(coeff_energy, energy, 1e-9);
}

TEST(Dct, ConstantSignalHasOnlyDc) {
  const std::vector<double> x(8, 3.0);
  const auto coeffs = dct1d(x);
  EXPECT_GT(std::fabs(coeffs[0]), 1.0);
  for (std::size_t i = 1; i < coeffs.size(); ++i) EXPECT_NEAR(coeffs[i], 0.0, 1e-10);
}

TEST(Dct, RoundTrip2d) {
  util::Rng rng(82);
  const int h = 6, w = 9;
  std::vector<double> x(static_cast<std::size_t>(h) * w);
  for (auto& v : x) v = rng.normal();
  const auto back = idct2d(dct2d(x, h, w), h, w);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
}

TEST(Dct, LowpassProjectionIdempotent) {
  util::Rng rng(83);
  const auto x = tensor::Tensor::randn(tensor::Shape::nchw(1, 2, 8, 8), rng);
  const auto once = dct_lowpass_nchw(x, 4);
  const auto twice = dct_lowpass_nchw(once, 4);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(once[i], twice[i], 1e-5);
}

TEST(Dct, LowpassFullDimIsIdentity) {
  util::Rng rng(84);
  const auto x = tensor::Tensor::randn(tensor::Shape::nchw(1, 1, 8, 8), rng);
  const auto out = dct_lowpass_nchw(x, 8);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(out[i], x[i], 1e-5);
}

TEST(Dct, LowpassOutputIsLowFrequency) {
  util::Rng rng(85);
  const auto x = tensor::Tensor::randn(tensor::Shape::nchw(1, 1, 16, 16), rng);
  const auto filtered = dct_lowpass_nchw(x, 4);
  const auto plane = extract_plane(filtered, 0, 0);
  EXPECT_GT(dct_lowfreq_energy_fraction(plane, 16, 16, 4), 0.999);
}

TEST(Spectrum, FftShiftInvolutionEvenSize) {
  util::Rng rng(86);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.normal();
  const auto back = fftshift2d(fftshift2d(x, 8, 8), 8, 8);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(back[i], x[i]);
}

TEST(Spectrum, ConstantImageHasNoHighFrequency) {
  const std::vector<double> flat(32 * 32, 0.7);
  EXPECT_NEAR(high_frequency_energy_ratio(flat, 32, 32), 0.0, 1e-9);
}

TEST(Spectrum, CheckerboardIsAllHighFrequency) {
  std::vector<double> checker(16 * 16);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) checker[static_cast<std::size_t>(y) * 16 + x] = ((x + y) % 2) ? 1.0 : -1.0;
  EXPECT_GT(high_frequency_energy_ratio(checker, 16, 16), 0.95);
}

TEST(Spectrum, BlurReducesHighFrequency) {
  util::Rng rng(87);
  auto x = tensor::Tensor::randn(tensor::Shape::nchw(1, 1, 32, 32), rng);
  const auto kernel = make_blur_kernel(5);
  const auto blurred = filter2d_depthwise(x, kernel);
  const double hf_before = high_frequency_energy_ratio(extract_plane(x, 0, 0), 32, 32);
  const double hf_after = high_frequency_energy_ratio(extract_plane(blurred, 0, 0), 32, 32);
  EXPECT_LT(hf_after, 0.5 * hf_before);
}

TEST(Spectrum, SpectralDistanceZeroForIdentical) {
  util::Rng rng(88);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.uniform();
  EXPECT_NEAR(spectral_distance(x, x, 8, 8), 0.0, 1e-12);
}

TEST(Spectrum, RadialProfileShapes) {
  const std::vector<double> flat(256, 1.0);
  const auto profile = radial_energy_profile(flat, 16, 16, 8);
  ASSERT_EQ(profile.size(), 8u);
  EXPECT_GT(profile[0], 0.0);           // DC bin carries all the energy
  for (std::size_t i = 1; i < 8; ++i) EXPECT_NEAR(profile[i], 0.0, 1e-9);
}

TEST(Kernels, BlurKernelSumsToOne) {
  for (const int size : {3, 5, 7}) {
    for (const auto kind : {KernelKind::kBox, KernelKind::kGaussian}) {
      const auto kernel = make_blur_kernel(size, kind);
      EXPECT_NEAR(kernel.sum(), 1.0f, 1e-5);
    }
  }
}

TEST(Kernels, EvenSizeThrows) { EXPECT_THROW(make_blur_kernel(4), std::invalid_argument); }

TEST(Kernels, FilterPreservesConstant) {
  // Border windows are renormalized by the in-bounds kernel mass, so a blur
  // of a constant image is the constant everywhere — including corners and
  // edges, which plain zero padding would darken.
  auto x = tensor::Tensor::full(tensor::Shape::nchw(1, 1, 9, 9), 2.0f);
  for (const int size : {3, 5, 7}) {
    for (const auto kind : {KernelKind::kBox, KernelKind::kGaussian}) {
      const auto blurred = filter2d_depthwise(x, make_blur_kernel(size, kind));
      for (std::int64_t i = 0; i < blurred.numel(); ++i) {
        ASSERT_NEAR(blurred[i], 2.0f, 1e-5) << "size " << size << " index " << i;
      }
    }
  }
}

TEST(Kernels, ZeroSumKernelBorderNotAnnihilated) {
  // Border renormalization must not apply to ~zero-sum kernels (total mass
  // ~0): a Laplacian's border response would otherwise be scaled to zero.
  tensor::Tensor laplacian(tensor::Shape::mat(3, 3),
                           {0.0f, -1.0f, 0.0f, -1.0f, 4.0f, -1.0f, 0.0f, -1.0f, 0.0f});
  util::Rng rng(55);
  const auto x = tensor::Tensor::rand_uniform(tensor::Shape::nchw(1, 1, 7, 7), rng);
  const auto out = filter2d_depthwise(x, laplacian);
  // Corner (0,0): taps that land in bounds are centre 4*x00, right -x01,
  // down -x10 — the raw zero-padded correlation, left untouched.
  const float expected =
      4.0f * x.at4(0, 0, 0, 0) - x.at4(0, 0, 0, 1) - x.at4(0, 0, 1, 0);
  EXPECT_NEAR(out.at4(0, 0, 0, 0), expected, 1e-5);
}

// The filter tap loop is kernel-dispatched, but every target replicates the
// scalar double-accumulator tap order, so filtering must be bitwise identical
// across all available dispatch targets — and across worker counts within
// each target.
TEST(KernelDispatch, FilterBitwiseIdenticalAcrossTargets) {
  util::Rng rng(77);
  // Width 13 with a 5x5 kernel leaves an interior of 9 — wide enough to hit
  // the SIMD body and a partial tail; 1 row exercises the all-border case.
  for (const auto hw : {std::pair<int, int>{13, 13}, {6, 31}, {1, 9}}) {
    const auto x = tensor::Tensor::randn(
        tensor::Shape::nchw(2, 3, hw.first, hw.second), rng);
    for (const int size : {3, 5}) {
      const auto kernel = make_blur_kernel(size, KernelKind::kGaussian);
      std::vector<float> scalar_out;
      for (const auto target : blurnet::testing::available_kernel_targets()) {
        blurnet::testing::ScopedKernelTarget scoped(target);
        const auto out = filter2d_depthwise(x, kernel);
        if (target == util::KernelTarget::kScalar) {
          scalar_out.assign(out.data(), out.data() + out.numel());
          continue;
        }
        for (std::int64_t i = 0; i < out.numel(); ++i) {
          ASSERT_EQ(out[i], scalar_out[static_cast<std::size_t>(i)])
              << util::kernel_target_name(target) << " " << hw.first << "x"
              << hw.second << " size " << size << " elem " << i;
        }
      }
    }
  }
}

TEST(KernelDispatch, FilterWorkerCountDeterminismPerTarget) {
  util::Rng rng(78);
  const auto x = tensor::Tensor::randn(tensor::Shape::nchw(3, 4, 11, 17), rng);
  const auto kernel = make_blur_kernel(3, KernelKind::kGaussian);
  for (const auto target : blurnet::testing::available_kernel_targets()) {
    blurnet::testing::ScopedKernelTarget scoped(target);
    util::set_parallel_workers(1);
    const auto baseline = filter2d_depthwise(x, kernel);
    for (const int workers : {2, 4}) {
      util::set_parallel_workers(workers);
      const auto out = filter2d_depthwise(x, kernel);
      for (std::int64_t i = 0; i < out.numel(); ++i) {
        ASSERT_EQ(out[i], baseline[i])
            << util::kernel_target_name(target) << " workers=" << workers
            << " elem " << i;
      }
    }
    util::reset_parallel_workers();
  }
}

}  // namespace
}  // namespace blurnet::signal
