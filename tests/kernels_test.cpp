#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/kernels/dispatch.h"
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
  EXPECT_EQ(kernel_target_available(KernelTarget::kNeon), caps.neon);
  // AVX2 and NEON binaries are different architectures; at most one is up.
  EXPECT_FALSE(caps.avx2_fma && caps.neon);
}

TEST(CpuCaps, ActiveTargetIsAvailableAndStable) {
  const KernelTarget active = active_kernel_target();
  EXPECT_TRUE(kernel_target_available(active));
  EXPECT_EQ(active, active_kernel_target());  // cached resolution
}

TEST(CpuCaps, NamesRoundTripThroughParse) {
  for (const auto target : {KernelTarget::kScalar, KernelTarget::kAvx2,
                            KernelTarget::kNeon}) {
    EXPECT_EQ(parse_kernel_target(kernel_target_name(target)), target);
  }
}

TEST(CpuCaps, ParseRejectsUnknownSpellingsDescriptively) {
  for (const char* bad : {"bogus", "", "AVX2", "sse2", "scalar "}) {
    try {
      parse_kernel_target(bad);
      FAIL() << "expected invalid_argument for '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      // The message must teach the accepted spellings.
      const std::string what = e.what();
      EXPECT_NE(what.find("scalar"), std::string::npos) << what;
      EXPECT_NE(what.find("avx2"), std::string::npos) << what;
      EXPECT_NE(what.find("neon"), std::string::npos) << what;
    }
  }
}

TEST(CpuCaps, SetKernelTargetRejectsUnavailableTargets) {
  for (const auto target : {KernelTarget::kAvx2, KernelTarget::kNeon}) {
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
  }
  // The row kernel is an optional specialization: scalar has none, so the
  // GEMM driver keeps the microtile path there.
  EXPECT_EQ(kernels::gemm_row(KernelTarget::kScalar), nullptr);
  // tap/warp dispatch can never come back null; callers rely on it.
  for (const auto target : available_kernel_targets()) {
    EXPECT_NE(kernels::tap_row(target), nullptr);
    EXPECT_NE(kernels::warp_row(target), nullptr);
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

// Direct unit check of the median3 row kernels against nth_element: the
// min/max network must produce the exact 5th order statistic.
TEST(KernelTable, Median3RowMatchesNthElement) {
  util::Rng rng(103);
  for (const std::int64_t count : {std::int64_t{1}, std::int64_t{7},
                                   std::int64_t{8}, std::int64_t{21}}) {
    std::vector<float> r0, r1, r2;
    for (std::int64_t i = 0; i < count + 2; ++i) {
      r0.push_back(static_cast<float>(rng.normal()));
      r1.push_back(static_cast<float>(rng.normal()));
      r2.push_back(static_cast<float>(rng.normal()));
    }
    std::vector<float> expected(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      std::vector<float> window;
      for (int d = 0; d < 3; ++d) {
        window.push_back(r0[static_cast<std::size_t>(i + d)]);
        window.push_back(r1[static_cast<std::size_t>(i + d)]);
        window.push_back(r2[static_cast<std::size_t>(i + d)]);
      }
      std::nth_element(window.begin(), window.begin() + 4, window.end());
      expected[static_cast<std::size_t>(i)] = window[4];
    }
    for (const auto target : available_kernel_targets()) {
      const kernels::Median3RowFn fn = kernels::median3_row(target);
      if (fn == nullptr) continue;  // target keeps the nth_element path
      std::vector<float> got(static_cast<std::size_t>(count), -999.0f);
      fn(r0.data(), r1.data(), r2.data(), got.data(), count);
      for (std::int64_t i = 0; i < count; ++i) {
        ASSERT_EQ(got[static_cast<std::size_t>(i)],
                  expected[static_cast<std::size_t>(i)])
            << kernel_target_name(target) << " count " << count << " elem " << i;
      }
    }
  }
}

// Direct unit check of the dispatched 8x8 DCT pair: forward matches the
// dispatched-off scalar path bitwise is covered in defense_test; here we
// check the algebraic contract — inverse(forward(x)) ~= x.
TEST(KernelTable, Dct8x8RoundTripsWhereSpecialized) {
  util::Rng rng(107);
  double block[64];
  for (double& v : block) v = rng.normal();
  for (const auto target : available_kernel_targets()) {
    const kernels::Dct8x8Fn fwd = kernels::dct8x8(target, /*inverse=*/false);
    const kernels::Dct8x8Fn inv = kernels::dct8x8(target, /*inverse=*/true);
    if (fwd == nullptr || inv == nullptr) {
      // Specializations ship in pairs; a lone direction would leave the
      // caller mixing dispatched and generic halves.
      EXPECT_EQ(fwd, inv) << kernel_target_name(target);
      continue;
    }
    double coeff[64], rebuilt[64];
    fwd(block, coeff);
    inv(coeff, rebuilt);
    for (int i = 0; i < 64; ++i) {
      ASSERT_NEAR(rebuilt[i], block[i], 1e-12)
          << kernel_target_name(target) << " elem " << i;
    }
  }
}

}  // namespace
}  // namespace blurnet::util
