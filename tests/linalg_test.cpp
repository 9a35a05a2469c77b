#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "src/autograd/gradcheck.h"
#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "src/kernels/dispatch.h"
#include "src/linalg/gemm.h"
#include "src/linalg/matrix.h"
#include "src/linalg/operators.h"
#include "src/linalg/svd.h"
#include "src/tensor/ops.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/test_helpers.h"

namespace blurnet::linalg {
namespace {

Matrix random_matrix(int rows, int cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) m.at(r, c) = rng.normal();
  return m;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  double out = 0;
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c) out = std::max(out, std::fabs(a.at(r, c) - b.at(r, c)));
  return out;
}

TEST(Matrix, MultiplyIdentity) {
  util::Rng rng(1);
  const Matrix a = random_matrix(4, 4, rng);
  const Matrix i = Matrix::identity(4);
  EXPECT_LT(max_abs_diff(a * i, a), 1e-12);
  EXPECT_LT(max_abs_diff(i * a, a), 1e-12);
}

TEST(Matrix, TransposeInvolution) {
  util::Rng rng(2);
  const Matrix a = random_matrix(3, 5, rng);
  EXPECT_LT(max_abs_diff(a.transpose().transpose(), a), 1e-15);
}

TEST(Matrix, ApplyVector) {
  Matrix m(2, 2, {1, 2, 3, 4});
  const auto y = m.apply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
  EXPECT_NO_THROW(a + b);
  EXPECT_THROW(a.apply({1.0, 2.0}), std::invalid_argument);
}

// SVD reconstruction across shapes (property sweep).
class SvdReconstruction : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SvdReconstruction, UsvtEqualsA) {
  const auto [rows, cols] = GetParam();
  util::Rng rng(10 + rows * 7 + cols);
  const Matrix a = random_matrix(rows, cols, rng);
  const SvdResult decomposition = svd(a);
  // Reconstruct A = U diag(sigma) V^T.
  Matrix reconstructed(rows, cols);
  for (std::size_t k = 0; k < decomposition.sigma.size(); ++k) {
    const double s = decomposition.sigma[k];
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c) {
        reconstructed.at(r, c) +=
            s * decomposition.u.at(r, static_cast<int>(k)) * decomposition.v.at(c, static_cast<int>(k));
      }
  }
  EXPECT_LT(max_abs_diff(reconstructed, a), 1e-8);
  // Singular values descending and non-negative.
  for (std::size_t k = 1; k < decomposition.sigma.size(); ++k) {
    EXPECT_LE(decomposition.sigma[k], decomposition.sigma[k - 1] + 1e-12);
    EXPECT_GE(decomposition.sigma[k], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdReconstruction,
                         ::testing::Values(std::pair{3, 3}, std::pair{5, 3}, std::pair{4, 6},
                                           std::pair{8, 8}, std::pair{15, 16}));

TEST(Svd, OrthonormalColumns) {
  util::Rng rng(21);
  const Matrix a = random_matrix(6, 4, rng);
  const auto decomposition = svd(a);
  const Matrix utu = decomposition.u.transpose() * decomposition.u;
  const Matrix vtv = decomposition.v.transpose() * decomposition.v;
  EXPECT_LT(max_abs_diff(utu, Matrix::identity(4)), 1e-8);
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(4)), 1e-8);
}

TEST(Pinv, MoorePenroseConditions) {
  util::Rng rng(31);
  const Matrix a = random_matrix(5, 3, rng);
  const Matrix p = pinv(a);
  EXPECT_EQ(p.rows(), 3);
  EXPECT_EQ(p.cols(), 5);
  // A P A = A and P A P = P.
  EXPECT_LT(max_abs_diff(a * p * a, a), 1e-7);
  EXPECT_LT(max_abs_diff(p * a * p, p), 1e-7);
  // A P and P A symmetric.
  const Matrix ap = a * p;
  const Matrix pa = p * a;
  EXPECT_LT(max_abs_diff(ap, ap.transpose()), 1e-7);
  EXPECT_LT(max_abs_diff(pa, pa.transpose()), 1e-7);
}

TEST(Pinv, InvertsNonsingularSquare) {
  Matrix a(2, 2, {2, 0, 0, 4});
  const Matrix p = pinv(a);
  EXPECT_NEAR(p.at(0, 0), 0.5, 1e-10);
  EXPECT_NEAR(p.at(1, 1), 0.25, 1e-10);
}

TEST(Operators, MovingAverageRowsSumToOne) {
  for (const int window : {3, 5}) {
    const Matrix l = moving_average_matrix(8, window);
    for (int r = 0; r < 8; ++r) {
      double row_sum = 0;
      for (int c = 0; c < 8; ++c) row_sum += l.at(r, c);
      EXPECT_NEAR(row_sum, 1.0, 1e-12);
    }
  }
}

TEST(Operators, MovingAverageSmoothsConstant) {
  const Matrix l = moving_average_matrix(6, 3);
  const auto y = l.apply({2, 2, 2, 2, 2, 2});
  for (const double v : y) EXPECT_NEAR(v, 2.0, 1e-12);
}

TEST(Operators, HighFrequencyAnnihilatesConstants) {
  // L_hf = I - L_avg must map constant vectors to ~0 (constants are the
  // lowest-frequency signal) and pass sign-alternating ones through.
  const Matrix l_hf = high_frequency_operator(8, 3);
  const auto on_constant = l_hf.apply(std::vector<double>(8, 3.0));
  for (const double v : on_constant) EXPECT_NEAR(v, 0.0, 1e-12);

  std::vector<double> alternating(8);
  for (int i = 0; i < 8; ++i) alternating[static_cast<std::size_t>(i)] = (i % 2) ? 1.0 : -1.0;
  const auto on_alternating = l_hf.apply(alternating);
  double energy = 0;
  for (const double v : on_alternating) energy += v * v;
  EXPECT_GT(energy, 1.0);  // high-frequency content passes through
}

TEST(Operators, DifferenceMatrixComputesDifferences) {
  const Matrix d = difference_matrix(4);
  EXPECT_EQ(d.rows(), 3);
  EXPECT_EQ(d.cols(), 4);
  const auto y = d.apply({1.0, 3.0, 6.0, 10.0});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
}

TEST(Operators, DifferencePinvIsSmoothing) {
  // L_diff+ approximates integration: applying it to a high-frequency
  // alternating signal must shrink its energy (it is a low-pass operator).
  const int n = 12;
  const Matrix p = difference_pinv(n);
  EXPECT_EQ(p.rows(), n);
  EXPECT_EQ(p.cols(), n - 1);
  std::vector<double> alternating(static_cast<std::size_t>(n - 1));
  double in_energy = 0;
  for (int i = 0; i < n - 1; ++i) {
    alternating[static_cast<std::size_t>(i)] = (i % 2) ? 1.0 : -1.0;
    in_energy += 1.0;
  }
  const auto smoothed = p.apply(alternating);
  double out_energy = 0;
  for (const double v : smoothed) out_energy += v * v;
  EXPECT_LT(out_energy, in_energy);
}

TEST(Operators, DctMatrixOrthonormal) {
  const Matrix d = dct_matrix(8);
  const Matrix should_be_identity = d * d.transpose();
  double max_diff = 0;
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c) {
      max_diff = std::max(max_diff,
                          std::fabs(should_be_identity.at(r, c) - (r == c ? 1.0 : 0.0)));
    }
  EXPECT_LT(max_diff, 1e-10);
}

TEST(Operators, KernelsNormalized) {
  for (const int width : {3, 5, 7}) {
    double box_sum = 0, gauss_sum = 0;
    for (const double t : box_kernel_1d(width)) box_sum += t;
    for (const double t : gaussian_kernel_1d(width)) gauss_sum += t;
    EXPECT_NEAR(box_sum, 1.0, 1e-12);
    EXPECT_NEAR(gauss_sum, 1.0, 1e-12);
  }
}

TEST(Operators, GaussianPeaksAtCenter) {
  const auto taps = gaussian_kernel_1d(5);
  EXPECT_GT(taps[2], taps[1]);
  EXPECT_GT(taps[1], taps[0]);
  EXPECT_NEAR(taps[0], taps[4], 1e-12);
}

TEST(Operators, InvalidArgumentsThrow) {
  EXPECT_THROW(moving_average_matrix(0, 3), std::invalid_argument);
  EXPECT_THROW(moving_average_matrix(8, 4), std::invalid_argument);
  EXPECT_THROW(difference_matrix(1), std::invalid_argument);
  EXPECT_THROW(box_kernel_1d(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Packed microkernel GEMM (src/linalg/gemm.h): the single kernel behind
// tensor::matmul{,_tn,_nt} and every convolution GEMM.
// ---------------------------------------------------------------------------

using tensor::Shape;
using tensor::Tensor;

Tensor random_tensor(std::int64_t rows, std::int64_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn(Shape::mat(rows, cols), rng);
}

// Shape sweep chosen to land on every partial-tile edge of the blocking:
// kMr=4 / kNr=8 register tiles, kMc=32 row panels, kKc=256 k-blocks.
std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> gemm_shapes() {
  return {
      {1, 1, 1},                          // single element
      {1, 1, 7},   {3, 1, 5},             // n = 1 column-vector results
      {1, 9, 4},                          // m = 1 row-vector result
      {4, 8, 1},   {5, 9, 1},             // k = 1 outer products
      {4, 8, 16},                         // exact tiles everywhere
      {5, 9, 17},  {7, 13, 31},           // all dims off-tile
      {33, 11, 19},                       // m crosses the kMc panel edge
      {70, 23, 300},                      // two+ panels, k crosses kKc
      {8, 40, 260},                       // k just past the kKc boundary
  };
}

// Every trans variant must match the matching serial naive reference
// elementwise and exactly: sgemm_reference for the scalar target (separate
// mul+add roundings), sgemm_reference_fused for the fused avx2/neon
// microtiles. The shared accumulation contract (ascending k, split at kKc)
// makes the comparison exact, not approximate, under every target.
void expect_gemm_matches_reference(const char* label) {
  const bool fused =
      kernels::gemm_microkernel(util::active_kernel_target()).fused;
  for (const auto& [m, n, k] : gemm_shapes()) {
    const Tensor a = random_tensor(m, k, static_cast<std::uint64_t>(m * 100 + k));
    const Tensor at = tensor::transpose2d(a);
    const Tensor b = random_tensor(k, n, static_cast<std::uint64_t>(n * 100 + k + 1));
    const Tensor bt = tensor::transpose2d(b);
    for (const bool accumulate : {false, true}) {
      auto run_pair = [&](Trans ta, Trans tb, const float* pa, std::int64_t lda,
                          const float* pb, std::int64_t ldb, const char* tag) {
        Tensor got(Shape::mat(m, n));
        Tensor want(Shape::mat(m, n));
        if (accumulate) {  // non-trivial starting C
          for (std::int64_t i = 0; i < m * n; ++i) {
            got[i] = want[i] = static_cast<float>(i % 17) - 8.0f;
          }
        }
        sgemm(ta, tb, m, n, k, pa, lda, pb, ldb, got.data(), n, accumulate);
        if (fused) {
          sgemm_reference_fused(ta, tb, m, n, k, pa, lda, pb, ldb, want.data(),
                                n, accumulate);
        } else {
          sgemm_reference(ta, tb, m, n, k, pa, lda, pb, ldb, want.data(), n,
                          accumulate);
        }
        for (std::int64_t i = 0; i < m * n; ++i) {
          ASSERT_EQ(got[i], want[i])
              << label << " " << tag << " shape (" << m << "," << n << "," << k
              << ") acc=" << accumulate << " elem " << i;
        }
      };
      run_pair(Trans::kNo, Trans::kNo, a.data(), k, b.data(), n, "NN");
      run_pair(Trans::kNo, Trans::kYes, a.data(), k, bt.data(), k, "NT");
      run_pair(Trans::kYes, Trans::kNo, at.data(), m, b.data(), n, "TN");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(Gemm, MicrokernelMatchesReferenceAcrossShapes) {
  expect_gemm_matches_reference("native");
}

TEST(Gemm, EmptyProblemsAreWellDefined) {
  // m == 0 / n == 0: no-op on a zero-area C. k == 0: C is zeroed unless
  // accumulating.
  std::vector<float> a(8, 1.0f), b(8, 1.0f);
  sgemm(Trans::kNo, Trans::kNo, 0, 4, 2, a.data(), 2, b.data(), 4, nullptr, 4, false);
  sgemm(Trans::kNo, Trans::kNo, 4, 0, 2, a.data(), 2, b.data(), 0, nullptr, 0, false);
  std::vector<float> c(6, 3.0f);
  sgemm(Trans::kNo, Trans::kNo, 2, 3, 0, a.data(), 0, b.data(), 3, c.data(), 3, true);
  for (const float v : c) EXPECT_EQ(v, 3.0f);
  sgemm(Trans::kNo, Trans::kNo, 2, 3, 0, a.data(), 0, b.data(), 3, c.data(), 3, false);
  for (const float v : c) EXPECT_EQ(v, 0.0f);
}

// Regression for the old `if (aik == 0.0f) continue;` shortcut: 0 * NaN and
// 0 * Inf must produce NaN, in every variant, in both kernels.
TEST(Gemm, NanAndInfPropagateThroughZeroRows) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float poison : {nan, inf}) {
    // a's row is all zeros; b carries the poison. A zero-skip kernel would
    // return 0 here, IEEE demands NaN.
    const Tensor a(Shape::mat(1, 2), {0.0f, 0.0f});
    const Tensor b(Shape::mat(2, 1), {poison, 1.0f});
    const Tensor nn = tensor::matmul(a, b);
    EXPECT_TRUE(std::isnan(nn[0])) << "matmul, poison=" << poison;
    const Tensor tn = tensor::matmul_tn(tensor::transpose2d(a), b);
    EXPECT_TRUE(std::isnan(tn[0])) << "matmul_tn, poison=" << poison;
    const Tensor nt = tensor::matmul_nt(a, tensor::transpose2d(b));
    EXPECT_TRUE(std::isnan(nt[0])) << "matmul_nt, poison=" << poison;

    // Accumulate variants (the conv backward path) must poison C too.
    float c_acc = 5.0f;
    sgemm(Trans::kNo, Trans::kNo, 1, 1, 2, a.data(), 2, b.data(), 1, &c_acc, 1, true);
    EXPECT_TRUE(std::isnan(c_acc)) << "sgemm accumulate, poison=" << poison;
    float c_ref = 5.0f;
    sgemm_reference(Trans::kNo, Trans::kNo, 1, 1, 2, a.data(), 2, b.data(), 1,
                    &c_ref, 1, true);
    EXPECT_TRUE(std::isnan(c_ref)) << "reference accumulate, poison=" << poison;
  }
}

// The packing step normalizes operand layout before any arithmetic, so a
// materialized transpose and the trans entry point are the *same* float
// program: bitwise-equal results, not merely close (the old kernels
// accumulated NT in double but NN/TN in float and failed this).
TEST(Gemm, TransposeIdentityIsBitwise) {
  const std::int64_t m = 33, n = 21, k = 270;  // off-tile everywhere, k > kKc
  const Tensor a = random_tensor(m, k, 7);
  const Tensor b = random_tensor(k, n, 8);
  const Tensor reference = tensor::matmul(a, b);
  const Tensor via_nt = tensor::matmul_nt(a, tensor::transpose2d(b));
  const Tensor via_tn = tensor::matmul_tn(tensor::transpose2d(a), b);
  for (std::int64_t i = 0; i < reference.numel(); ++i) {
    ASSERT_EQ(reference[i], via_nt[i]) << "matmul vs matmul_nt, elem " << i;
    ASSERT_EQ(reference[i], via_tn[i]) << "matmul vs matmul_tn, elem " << i;
  }
}

// Chunk boundaries depend only on (m, kMc, the dispatch target), so any
// BLURNET_WORKERS value must produce bit-identical output — the same
// determinism contract the serving engine proves across replica counts.
void expect_gemm_worker_count_determinism(const char* label) {
  const std::int64_t m = 70, n = 45, k = 300;
  const Tensor a = random_tensor(m, k, 11);
  const Tensor b = random_tensor(k, n, 12);
  util::set_parallel_workers(1);
  const Tensor nn1 = tensor::matmul(a, b);
  const Tensor tn1 = tensor::matmul_tn(tensor::transpose2d(a), b);
  const Tensor nt1 = tensor::matmul_nt(a, tensor::transpose2d(b));
  for (const int workers : {2, 4}) {
    util::set_parallel_workers(workers);
    const Tensor nn = tensor::matmul(a, b);
    const Tensor tn = tensor::matmul_tn(tensor::transpose2d(a), b);
    const Tensor nt = tensor::matmul_nt(a, tensor::transpose2d(b));
    for (std::int64_t i = 0; i < nn1.numel(); ++i) {
      ASSERT_EQ(nn1[i], nn[i]) << label << " NN, workers=" << workers << " elem " << i;
      ASSERT_EQ(tn1[i], tn[i]) << label << " TN, workers=" << workers << " elem " << i;
      ASSERT_EQ(nt1[i], nt[i]) << label << " NT, workers=" << workers << " elem " << i;
    }
    if (::testing::Test::HasFatalFailure()) break;
  }
  util::reset_parallel_workers();
}

TEST(Gemm, BitwiseDeterministicAcrossWorkerCounts) {
  expect_gemm_worker_count_determinism("native");
}

// Autograd gradcheck routed through the microkernel, at shapes that hit
// partial register tiles on both sides of dense's backward (the x side uses
// the NT variant, the w side the TN variant).
TEST(Gemm, GradcheckThroughMicrokernel) {
  using autograd::Variable;
  util::Rng rng(13);
  const Tensor x0 = Tensor::randn(Shape::mat(5, 9), rng, 0.0f, 0.5f);
  const Tensor w0 = Tensor::randn(Shape::mat(9, 7), rng, 0.0f, 0.5f);
  const Variable w_const = Variable::constant(w0);
  const auto x_side = autograd::gradcheck(
      [&](const Variable& x) {
        return autograd::sum_squares(autograd::dense(x, w_const, Variable()));
      },
      x0);
  EXPECT_TRUE(x_side.passed) << "max_rel_error=" << x_side.max_rel_error;
  const Variable x_const = Variable::constant(x0);
  const auto w_side = autograd::gradcheck(
      [&](const Variable& w) {
        return autograd::sum_squares(autograd::dense(x_const, w, Variable()));
      },
      w0);
  EXPECT_TRUE(w_side.passed) << "max_rel_error=" << w_side.max_rel_error;
}

// ---------------------------------------------------------------------------
// Kernel dispatch (src/kernels/dispatch.h): re-run the GEMM exactness and
// determinism contracts under every forced target available on this host.
// ---------------------------------------------------------------------------

using blurnet::testing::available_kernel_targets;
using blurnet::testing::ScopedKernelTarget;

TEST(KernelDispatch, GemmMatchesMatchingReferenceUnderEveryTarget) {
  for (const auto target : available_kernel_targets()) {
    ScopedKernelTarget guard(target);
    expect_gemm_matches_reference(util::kernel_target_name(target));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(KernelDispatch, GemmWorkerCountDeterminismUnderEveryTarget) {
  for (const auto target : available_kernel_targets()) {
    ScopedKernelTarget guard(target);
    expect_gemm_worker_count_determinism(util::kernel_target_name(target));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(KernelDispatch, GemmNanAndInfPropagateUnderEveryTarget) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const auto target : available_kernel_targets()) {
    ScopedKernelTarget guard(target);
    for (const float poison : {nan, inf}) {
      const Tensor a(Shape::mat(1, 2), {0.0f, 0.0f});
      const Tensor b(Shape::mat(2, 1), {poison, 1.0f});
      const Tensor nn = tensor::matmul(a, b);
      EXPECT_TRUE(std::isnan(nn[0]))
          << util::kernel_target_name(target) << ", poison=" << poison;
    }
  }
}

// GEMMs with fewer rows than the target's microtile run through the row
// kernel where one exists. It must stay the microtile's exact fold: equal to
// the matching reference for every m < mr, for column counts on and off the
// 8-wide vector edge, and for k on both sides of the kKc block edge.
bool same_float(float got, float want) {
  if (std::isnan(want)) return std::isnan(got);  // payloads may differ
  return std::memcmp(&got, &want, sizeof(float)) == 0;
}

TEST(KernelDispatch, GemmRowPathMatchesReferenceUnderEveryTarget) {
  for (const auto target : available_kernel_targets()) {
    ScopedKernelTarget guard(target);
    const bool fused = kernels::gemm_microkernel(target).fused;
    for (std::int64_t m = 1; m <= 7; ++m) {
      for (const std::int64_t n : {1, 8, 18, 33}) {
        for (const std::int64_t k : {1, 255, 256, 257, 4096}) {
          const Tensor a = random_tensor(m, k, static_cast<std::uint64_t>(m * 7 + k));
          const Tensor at = tensor::transpose2d(a);
          const Tensor b = random_tensor(k, n, static_cast<std::uint64_t>(n * 13 + k));
          for (const bool accumulate : {false, true}) {
            for (const Trans ta : {Trans::kNo, Trans::kYes}) {
              const float* pa = ta == Trans::kNo ? a.data() : at.data();
              const std::int64_t lda = ta == Trans::kNo ? k : m;
              Tensor got(Shape::mat(m, n));
              Tensor want(Shape::mat(m, n));
              for (std::int64_t i = 0; i < m * n; ++i) {
                got[i] = want[i] = static_cast<float>(i % 5) - 2.0f;
              }
              sgemm(ta, Trans::kNo, m, n, k, pa, lda, b.data(), n, got.data(), n, accumulate);
              (fused ? sgemm_reference_fused : sgemm_reference)(
                  ta, Trans::kNo, m, n, k, pa, lda, b.data(), n, want.data(), n, accumulate);
              for (std::int64_t i = 0; i < m * n; ++i) {
                ASSERT_TRUE(same_float(got[i], want[i]))
                    << util::kernel_target_name(target) << " (" << m << "," << n << ","
                    << k << ") trans_a=" << (ta == Trans::kYes) << " acc=" << accumulate
                    << " elem " << i << ": " << got[i] << " vs " << want[i];
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelDispatch, GemmRowPathPropagatesNanAndInf) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::int64_t m = 3, n = 18, k = 300;
  for (const auto target : available_kernel_targets()) {
    ScopedKernelTarget guard(target);
    const bool fused = kernels::gemm_microkernel(target).fused;
    for (const float poison : {nan, inf}) {
      for (const bool accumulate : {false, true}) {
        // Row 0 of A is all zeros against a poisoned B column (0 * Inf and
        // 0 * NaN are NaN); row 1 carries the poison in A itself, in the
        // second k-block; B's last column is poisoned in the masked tail.
        Tensor a = random_tensor(m, k, 51);
        Tensor b = random_tensor(k, n, 52);
        for (std::int64_t kk = 0; kk < k; ++kk) a[kk] = 0.0f;
        a[1 * k + 270] = poison;
        b[5 * n + 3] = poison;
        b[280 * n + (n - 1)] = poison;
        Tensor got(Shape::mat(m, n));
        Tensor want(Shape::mat(m, n));
        sgemm(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n, got.data(), n,
              accumulate);
        (fused ? sgemm_reference_fused : sgemm_reference)(
            Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n, want.data(), n,
            accumulate);
        EXPECT_TRUE(std::isnan(got[3])) << util::kernel_target_name(target);
        EXPECT_TRUE(std::isnan(got[n - 1])) << util::kernel_target_name(target);
        for (std::int64_t i = 0; i < m * n; ++i) {
          ASSERT_TRUE(same_float(got[i], want[i]))
              << util::kernel_target_name(target) << " poison=" << poison
              << " acc=" << accumulate << " elem " << i << ": " << got[i] << " vs " << want[i];
        }
      }
    }
  }
}

// The documented cross-target contract: fused targets may differ from the
// scalar fold only in accumulation rounding. A standard forward-error bound
// for a length-k float fold is ~k*eps*sum|a||b| per element; the difference
// of two such folds stays within twice that. Anything larger would mean a
// dispatch bug (wrong tap, wrong tile edge), not rounding.
TEST(KernelDispatch, FusedTargetsStayWithinFoldErrorBoundOfScalar) {
  const std::int64_t m = 33, n = 21, k = 300;
  const Tensor a = random_tensor(m, k, 41);
  const Tensor b = random_tensor(k, n, 42);
  Tensor scalar_ref(Shape::mat(m, n));
  sgemm_reference(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n,
                  scalar_ref.data(), n, false);
  for (const auto target : available_kernel_targets()) {
    ScopedKernelTarget guard(target);
    Tensor got(Shape::mat(m, n));
    sgemm(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n,
          got.data(), n, false);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        double abs_sum = 0.0;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          abs_sum += std::fabs(static_cast<double>(a[i * k + kk])) *
                     std::fabs(static_cast<double>(b[kk * n + j]));
        }
        const double bound = 4.0 * static_cast<double>(k) *
                             std::numeric_limits<float>::epsilon() * abs_sum;
        ASSERT_NEAR(got[i * n + j], scalar_ref[i * n + j], bound)
            << util::kernel_target_name(target) << " elem (" << i << "," << j << ")";
      }
    }
  }
}

}  // namespace
}  // namespace blurnet::linalg
