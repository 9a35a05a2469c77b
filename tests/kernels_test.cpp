#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/kernels/dispatch.h"
#include "src/linalg/gemm.h"
#include "src/signal/dct.h"
#include "src/util/cpu_caps.h"
#include "src/util/rng.h"
#include "tests/test_helpers.h"

namespace blurnet::util {
namespace {

using blurnet::testing::ScopedKernelTarget;
using blurnet::testing::available_kernel_targets;

TEST(CpuCaps, ProbeIsConsistentAndCached) {
  const CpuCaps& caps = cpu_caps();
  // Probe-once: repeated calls hand back the same cached struct.
  EXPECT_EQ(&caps, &cpu_caps());
  // Availability must mirror the probe exactly; scalar is unconditional.
  EXPECT_TRUE(kernel_target_available(KernelTarget::kScalar));
  EXPECT_EQ(kernel_target_available(KernelTarget::kAvx2), caps.avx2_fma);
  EXPECT_EQ(kernel_target_available(KernelTarget::kAvx512), caps.avx512);
  EXPECT_EQ(kernel_target_available(KernelTarget::kNeon), caps.neon);
  // AVX2 and NEON binaries are different architectures; at most one is up.
  EXPECT_FALSE(caps.avx2_fma && caps.neon);
  // avx512 runs the avx2 kernels for everything but its GEMM tile.
  EXPECT_TRUE(!caps.avx512 || caps.avx2_fma);
}

TEST(CpuCaps, ActiveTargetIsAvailableAndStable) {
  const KernelTarget active = active_kernel_target();
  EXPECT_TRUE(kernel_target_available(active));
  EXPECT_EQ(active, active_kernel_target());  // cached resolution
}

TEST(CpuCaps, NamesRoundTripThroughParse) {
  for (const auto target : {KernelTarget::kScalar, KernelTarget::kAvx2,
                            KernelTarget::kAvx512, KernelTarget::kNeon}) {
    EXPECT_EQ(parse_kernel_target(kernel_target_name(target)), target);
  }
}

TEST(CpuCaps, ParseRejectsUnknownSpellingsDescriptively) {
  for (const char* bad : {"bogus", "", "AVX2", "sse2", "scalar ", "avx512f", "AVX512"}) {
    try {
      parse_kernel_target(bad);
      FAIL() << "expected invalid_argument for '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      // The message must teach the accepted spellings.
      const std::string what = e.what();
      EXPECT_NE(what.find("scalar"), std::string::npos) << what;
      EXPECT_NE(what.find("avx2"), std::string::npos) << what;
      EXPECT_NE(what.find("avx512"), std::string::npos) << what;
      EXPECT_NE(what.find("neon"), std::string::npos) << what;
    }
  }
}

TEST(CpuCaps, SetKernelTargetRejectsUnavailableTargets) {
  for (const auto target : {KernelTarget::kAvx2, KernelTarget::kAvx512,
                            KernelTarget::kNeon}) {
    if (kernel_target_available(target)) continue;
    EXPECT_THROW(set_kernel_target(target), std::invalid_argument);
  }
  // An unavailable-target throw must not poison the cached resolution.
  EXPECT_TRUE(kernel_target_available(active_kernel_target()));
}

TEST(CpuCaps, SetAndResetKernelTargetRoundTrip) {
  const KernelTarget before = active_kernel_target();
  {
    ScopedKernelTarget scoped(KernelTarget::kScalar);
    EXPECT_EQ(active_kernel_target(), KernelTarget::kScalar);
  }
  EXPECT_EQ(active_kernel_target(), before);
}

TEST(KernelTable, GemmMicrokernelDescriptorsAreSane) {
  for (const auto target : available_kernel_targets()) {
    const kernels::GemmMicrokernel& mk = kernels::gemm_microkernel(target);
    EXPECT_NE(mk.fn, nullptr) << kernel_target_name(target);
    EXPECT_GE(mk.mr, 1) << kernel_target_name(target);
    EXPECT_LE(mk.mr, kernels::kGemmMaxMr) << kernel_target_name(target);
    if (target == KernelTarget::kScalar) {
      EXPECT_FALSE(mk.fused);
      EXPECT_EQ(mk.mr, 4);
    } else {
      EXPECT_TRUE(mk.fused);  // SIMD targets accumulate with hardware FMA
    }
    if (target == KernelTarget::kAvx512) {
      EXPECT_EQ(mk.mr, 16);
      // Everything but the tile is the avx2 kernel.
      EXPECT_EQ(kernels::gemm_row(target), kernels::gemm_row(KernelTarget::kAvx2));
      EXPECT_EQ(kernels::gemm_store(target), kernels::gemm_store(KernelTarget::kAvx2));
      EXPECT_EQ(kernels::tap_row(target), kernels::tap_row(KernelTarget::kAvx2));
      EXPECT_EQ(kernels::median5_row(target), kernels::median5_row(KernelTarget::kAvx2));
    }
    EXPECT_NE(kernels::gemm_store(target), nullptr) << kernel_target_name(target);
  }
  // The row kernel is an optional specialization: scalar has none, so the
  // GEMM driver keeps the microtile path there.
  EXPECT_EQ(kernels::gemm_row(KernelTarget::kScalar), nullptr);
  // tap/warp/median dispatch can never come back null; callers rely on it.
  for (const auto target : available_kernel_targets()) {
    EXPECT_NE(kernels::tap_row(target), nullptr);
    EXPECT_NE(kernels::warp_row(target), nullptr);
    EXPECT_NE(kernels::median3_row(target), nullptr);
    EXPECT_NE(kernels::median5_row(target), nullptr);
  }
}

// Direct unit check of the tap-row kernels: every target must reproduce the
// scalar double-accumulator tap fold bitwise. Lengths 1..40 cover the 16-px
// multi-chain body, the 4-px body and the scalar tail, alone and combined.
TEST(KernelTable, TapRowMatchesScalarBitwise) {
  util::Rng rng(101);
  for (const auto& [kh, kw] : {std::pair{3, 5}, std::pair{5, 5}}) {
    for (std::int64_t count = 1; count <= 40; ++count) {
      const std::int64_t stride = count + kw - 1;
      std::vector<float> src(static_cast<std::size_t>(stride * kh));
      std::vector<float> ker(static_cast<std::size_t>(kh * kw));
      for (auto& v : src) v = static_cast<float>(rng.normal());
      for (auto& v : ker) v = static_cast<float>(rng.normal());
      std::vector<float> expected(static_cast<std::size_t>(count));
      kernels::tap_row(KernelTarget::kScalar)(src.data(), stride, ker.data(), kh,
                                              kw, expected.data(), count);
      for (const auto target : available_kernel_targets()) {
        if (target == KernelTarget::kScalar) continue;
        std::vector<float> got(static_cast<std::size_t>(count), -999.0f);
        kernels::tap_row(target)(src.data(), stride, ker.data(), kh, kw,
                                 got.data(), count);
        for (std::int64_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[static_cast<std::size_t>(i)],
                    expected[static_cast<std::size_t>(i)])
              << kernel_target_name(target) << " " << kh << "x" << kw << " count "
              << count << " elem " << i;
        }
      }
    }
  }
}

kernels::MedianRowFn median_row(KernelTarget target, int k) {
  return k == 3 ? kernels::median3_row(target) : kernels::median5_row(target);
}

// The oracle: std::nth_element's middle order statistic of each k×k window
// along a strip of k rows `stride` floats apart.
std::vector<float> nth_element_medians(const std::vector<float>& src,
                                       std::int64_t stride, int k,
                                       std::int64_t count) {
  std::vector<float> out;
  std::vector<float> window;
  for (std::int64_t i = 0; i < count; ++i) {
    window.clear();
    for (int fy = 0; fy < k; ++fy) {
      for (int fx = 0; fx < k; ++fx) {
        window.push_back(src[static_cast<std::size_t>(fy * stride + i + fx)]);
      }
    }
    const auto mid = window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2);
    std::nth_element(window.begin(), mid, window.end());
    out.push_back(*mid);
  }
  return out;
}

// Every target's k×k median row must produce nth_element's exact order
// statistic on distinct values, heavy ties (8 quantized levels) and
// constant strips. The counts straddle the 8-px (avx2) and 4-px (neon)
// vector bodies and their scalar tails.
void expect_median_rows_match_nth_element(int k, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<std::function<float()>> draws = {
      [&] { return static_cast<float>(rng.normal()); },
      [&] { return static_cast<float>(rng.uniform_int(0, 7)) / 7.0f; },
      [] { return 0.25f; }};
  for (const std::int64_t count : {1, 7, 8, 9, 15, 16, 17, 40}) {
    const std::int64_t stride = count + k - 1;
    for (std::size_t d = 0; d < draws.size(); ++d) {
      std::vector<float> src(static_cast<std::size_t>(stride * k));
      for (auto& v : src) v = draws[d]();
      const std::vector<float> expected = nth_element_medians(src, stride, k, count);
      for (const auto target : available_kernel_targets()) {
        std::vector<float> got(static_cast<std::size_t>(count), -999.0f);
        median_row(target, k)(src.data(), stride, got.data(), count);
        for (std::int64_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[static_cast<std::size_t>(i)],
                    expected[static_cast<std::size_t>(i)])
              << "median" << k << " on " << kernel_target_name(target)
              << " draw " << d << " count " << count << " elem " << i;
        }
      }
    }
  }
}

TEST(KernelTable, Median3RowMatchesNthElement) {
  expect_median_rows_match_nth_element(3, 103);
}

TEST(KernelTable, Median5RowMatchesNthElement) {
  expect_median_rows_match_nth_element(5, 109);
}

// The network's compare-exchange is `lo = a < b ? a : b, hi = a < b ? b : a`
// on every target, so even where the median is undefined (NaN) or ties
// differ in sign (±0) each SIMD target must reproduce the scalar network
// bit for bit. Windows draw from a small alphabet so NaN, ±0 and ±inf
// meet each other in every slot of the network.
TEST(KernelTable, MedianRowsBitwiseAcrossTargetsOnNanAndSignedZero) {
  const float alphabet[] = {std::numeric_limits<float>::quiet_NaN(),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            1.0f,
                            -1.0f,
                            0.5f};
  util::Rng rng(113);
  constexpr std::int64_t count = 40;
  for (const int k : {3, 5}) {
    const std::int64_t stride = count + k - 1;
    for (int trial = 0; trial < 500; ++trial) {
      std::vector<float> src(static_cast<std::size_t>(stride * k));
      for (auto& v : src) v = alphabet[rng.uniform_index(std::size(alphabet))];
      std::vector<float> expected(static_cast<std::size_t>(count));
      median_row(KernelTarget::kScalar, k)(src.data(), stride, expected.data(), count);
      for (const auto target : available_kernel_targets()) {
        std::vector<float> got(static_cast<std::size_t>(count));
        median_row(target, k)(src.data(), stride, got.data(), count);
        ASSERT_EQ(std::memcmp(got.data(), expected.data(), got.size() * sizeof(float)), 0)
            << "median" << k << " on " << kernel_target_name(target) << " trial "
            << trial;
      }
    }
  }
}

// ---- GEMM tile store and the avx512 tile ------------------------------------

std::uint32_t bits_of(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// The IEEE specials the store and tile contracts name, plus ordinary values.
float special_or_normal(util::Rng& rng) {
  static const float kSpecials[] = {std::numeric_limits<float>::quiet_NaN(),
                                    -std::numeric_limits<float>::quiet_NaN(),
                                    0.0f,
                                    -0.0f,
                                    std::numeric_limits<float>::infinity(),
                                    -std::numeric_limits<float>::infinity()};
  if (rng.uniform() < 0.3) return kSpecials[rng.uniform_int(0, 5)];
  return static_cast<float>(rng.normal());
}

// Bit-for-bit equality, except that a NaN result may carry any NaN payload:
// when two NaN operands meet, which one propagates depends on the operand
// order the compiler emits for a commutative add or multiply (and on
// std::fma's implementation), which no kernel controls.
void expect_equal_up_to_nan_payload(const std::vector<float>& got,
                                    const std::vector<float>& want,
                                    const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i])) {
      ASSERT_TRUE(std::isnan(got[i])) << where << " elem " << i << " = " << got[i];
    } else {
      ASSERT_EQ(bits_of(got[i]), bits_of(want[i])) << where << " elem " << i;
    }
  }
}

// Every target's tile store must be the scalar store bit for bit — stored
// and added blocks, with and without bias and ReLU, full and partial tiles —
// on NaN, ±0 and ±Inf (up to the payload of a NaN result), and must leave
// the C columns past `cols` untouched.
TEST(KernelTable, GemmStoreMatchesScalarBitwiseOnSpecials) {
  util::Rng rng(109);
  constexpr std::int64_t kLdc = 11;
  constexpr float kSentinel = 12345.0f;
  const kernels::GemmStoreFn scalar = kernels::gemm_store(KernelTarget::kScalar);
  for (const std::int64_t rows : {1, 3, 8, 16}) {
    for (std::int64_t cols = 1; cols <= kernels::kGemmNr; ++cols) {
      std::vector<float> acc(static_cast<std::size_t>(kernels::kGemmMaxMr * kernels::kGemmNr));
      std::vector<float> c0(static_cast<std::size_t>(rows * kLdc), kSentinel);
      std::vector<float> bias(static_cast<std::size_t>(rows));
      for (auto& v : acc) v = special_or_normal(rng);
      for (auto& v : bias) v = special_or_normal(rng);
      for (std::int64_t i = 0; i < rows; ++i) {
        for (std::int64_t j = 0; j < cols; ++j) {
          c0[static_cast<std::size_t>(i * kLdc + j)] = special_or_normal(rng);
        }
      }
      for (const bool first : {true, false}) {
        for (const bool with_bias : {false, true}) {
          for (const bool relu : {false, true}) {
            std::vector<float> want = c0;
            scalar(acc.data(), rows, cols, want.data(), kLdc, first,
                   with_bias ? bias.data() : nullptr, relu);
            for (std::size_t i = 0; i < want.size(); ++i) {
              const std::int64_t col = static_cast<std::int64_t>(i) % kLdc;
              if (col >= cols) {
                ASSERT_EQ(bits_of(want[i]), bits_of(kSentinel)) << "scalar wrote past cols";
              } else if (relu) {
                // tensor::relu's select: NaN and -0 come out +0.
                ASSERT_FALSE(std::isnan(want[i]));
                ASSERT_TRUE(want[i] > 0 || bits_of(want[i]) == 0u) << want[i];
              }
            }
            for (const auto target : available_kernel_targets()) {
              std::vector<float> got = c0;
              kernels::gemm_store(target)(acc.data(), rows, cols, got.data(), kLdc, first,
                                          with_bias ? bias.data() : nullptr, relu);
              expect_equal_up_to_nan_payload(
                  got, want,
                  std::string(kernel_target_name(target)) + " rows " + std::to_string(rows) +
                      " cols " + std::to_string(cols) + " first " + std::to_string(first) +
                      " bias " + std::to_string(with_bias) + " relu " + std::to_string(relu));
            }
          }
        }
      }
    }
  }
}

// The 16x8 avx512 tile against two 8x8 avx2 tiles over the same operands
// and against sgemm_reference_fused.
TEST(KernelTable, Avx512TileEqualsAvx2TileAndFusedReference) {
  if (!kernel_target_available(KernelTarget::kAvx512)) {
    GTEST_SKIP() << "host lacks AVX-512 F/VL with OS-enabled ZMM state (or the "
                    "binary was built without the avx512 kernels)";
  }
  const kernels::GemmMicrokernel& wide = kernels::gemm_microkernel(KernelTarget::kAvx512);
  const kernels::GemmMicrokernel& narrow = kernels::gemm_microkernel(KernelTarget::kAvx2);
  ASSERT_EQ(wide.mr, 16);
  ASSERT_EQ(narrow.mr, 8);
  util::Rng rng(113);
  constexpr std::int64_t nr = kernels::kGemmNr;
  for (const bool specials : {false, true}) {
    for (const std::int64_t kc : {1, 2, 7, 75, 144, 256}) {
      for (const std::int64_t ldb : {nr, std::int64_t{13}}) {
        std::vector<float> ap(static_cast<std::size_t>(16 * kc));
        std::vector<float> b(static_cast<std::size_t>(kc * ldb));
        for (auto& v : ap) v = specials ? special_or_normal(rng) : static_cast<float>(rng.normal());
        for (auto& v : b) v = specials ? special_or_normal(rng) : static_cast<float>(rng.normal());
        std::vector<float> got(static_cast<std::size_t>(16 * nr), -999.0f);
        wide.fn(kc, ap.data(), b.data(), ldb, got.data());

        // Split the 16-row panel into the two 8-row panels avx2 packs.
        std::vector<float> want(static_cast<std::size_t>(16 * nr));
        for (int half = 0; half < 2; ++half) {
          std::vector<float> panel(static_cast<std::size_t>(8 * kc));
          for (std::int64_t kk = 0; kk < kc; ++kk) {
            for (int ii = 0; ii < 8; ++ii) {
              panel[static_cast<std::size_t>(kk * 8 + ii)] =
                  ap[static_cast<std::size_t>(kk * 16 + half * 8 + ii)];
            }
          }
          narrow.fn(kc, panel.data(), b.data(), ldb, want.data() + half * 8 * nr);
        }
        const std::string where = "kc " + std::to_string(kc) + " ldb " + std::to_string(ldb) +
                                  (specials ? " with specials" : "");
        expect_equal_up_to_nan_payload(got, want, where + " vs avx2");

        // A is the packed panel read as a column-major [16, kc] matrix.
        std::vector<float> ref(static_cast<std::size_t>(16 * nr));
        linalg::sgemm_reference_fused(linalg::Trans::kYes, linalg::Trans::kNo, 16, nr, kc,
                                      ap.data(), 16, b.data(), ldb, ref.data(), nr,
                                      /*accumulate=*/false);
        expect_equal_up_to_nan_payload(got, ref, where + " vs sgemm_reference_fused");
      }
    }
  }
}

// The whole GEMM driver under forced avx512 against forced avx2 and the fused
// reference: m < 16 (the avx2 row kernel), partial row and column tiles,
// several k-blocks, transposed operands, and NaN/Inf operands.
TEST(KernelTable, Avx512GemmEqualsAvx2GemmAcrossShapes) {
  if (!kernel_target_available(KernelTarget::kAvx512)) {
    GTEST_SKIP() << "host lacks AVX-512 F/VL with OS-enabled ZMM state (or the "
                    "binary was built without the avx512 kernels)";
  }
  util::Rng rng(127);
  for (const bool specials : {false, true}) {
    for (const std::int64_t m : {1, 7, 8, 9, 15, 16, 17, 33, 64}) {
      for (const std::int64_t n : {1, 8, 13, 40}) {
        for (const std::int64_t k : {1, 31, 257, 300}) {
          for (const auto tb : {linalg::Trans::kNo, linalg::Trans::kYes}) {
            std::vector<float> a(static_cast<std::size_t>(m * k));
            std::vector<float> b(static_cast<std::size_t>(k * n));
            for (auto& v : a) v = specials ? special_or_normal(rng) : static_cast<float>(rng.normal());
            for (auto& v : b) v = specials ? special_or_normal(rng) : static_cast<float>(rng.normal());
            const std::int64_t ldb = tb == linalg::Trans::kNo ? n : k;
            auto run = [&](KernelTarget target) {
              blurnet::testing::ScopedKernelTarget scoped(target);
              std::vector<float> c(static_cast<std::size_t>(m * n), -999.0f);
              linalg::sgemm(linalg::Trans::kNo, tb, m, n, k, a.data(), k, b.data(), ldb,
                            c.data(), n, /*accumulate=*/false);
              return c;
            };
            const std::vector<float> got = run(KernelTarget::kAvx512);
            const std::vector<float> want = run(KernelTarget::kAvx2);
            const std::string where = "m " + std::to_string(m) + " n " + std::to_string(n) +
                                      " k " + std::to_string(k) +
                                      (tb == linalg::Trans::kYes ? " NT" : " NN") +
                                      (specials ? " with specials" : "");
            expect_equal_up_to_nan_payload(got, want, where + " vs avx2");
            std::vector<float> ref(static_cast<std::size_t>(m * n));
            linalg::sgemm_reference_fused(linalg::Trans::kNo, tb, m, n, k, a.data(), k,
                                          b.data(), ldb, ref.data(), n, /*accumulate=*/false);
            expect_equal_up_to_nan_payload(got, ref, where + " vs sgemm_reference_fused");
          }
        }
      }
    }
  }
}

// Direct unit check of the dispatched 8x8 DCT pair: forward matches the
// dispatched-off scalar path bitwise is covered in defense_test; here we
// check the algebraic contract — inverse(forward(x)) ~= x.
TEST(KernelTable, Dct8x8RoundTripsAndMatchesSignalDctBitwise) {
  util::Rng rng(107);
  std::vector<double> block(64);
  for (double& v : block) v = rng.normal();
  const std::vector<double> want_coeff = signal::dct2d(block, 8, 8);
  const std::vector<double> want_rebuilt = signal::idct2d(want_coeff, 8, 8);
  for (const auto target : available_kernel_targets()) {
    const kernels::Dct8x8Fn fwd = kernels::dct8x8(target, /*inverse=*/false);
    const kernels::Dct8x8Fn inv = kernels::dct8x8(target, /*inverse=*/true);
    ASSERT_NE(fwd, nullptr) << kernel_target_name(target);
    ASSERT_NE(inv, nullptr) << kernel_target_name(target);
    double coeff[64], rebuilt[64];
    fwd(block.data(), coeff);
    inv(coeff, rebuilt);
    for (int i = 0; i < 64; ++i) {
      ASSERT_NEAR(rebuilt[i], block[static_cast<std::size_t>(i)], 1e-12)
          << kernel_target_name(target) << " elem " << i;
      // The same fold order and cosine values as the generic transforms.
      EXPECT_EQ(coeff[i], want_coeff[static_cast<std::size_t>(i)])
          << kernel_target_name(target) << " forward elem " << i;
      EXPECT_EQ(rebuilt[i], want_rebuilt[static_cast<std::size_t>(i)])
          << kernel_target_name(target) << " inverse elem " << i;
    }
  }
}

}  // namespace
}  // namespace blurnet::util
