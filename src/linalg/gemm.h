// Single-precision GEMM shared by every matmul / convolution path.
//
// One packed, cache-blocked, register-tiled kernel sits behind
// tensor::matmul{,_tn,_nt}, the conv backward GEMMs (dW over an explicit
// im2col matrix, dX before col2im) and the Tikhonov filter-plane GEMMs; the
// conv forward (autograd::conv2d, with or without gradients) drives the same
// microtile over the same panel layouts as an implicit GEMM, so the whole
// system has exactly one set of GEMM numerics.
//
// Numeric contract (identical for every transpose variant):
//   * float32 accumulation, no widening to double;
//   * each output element C[i,j] is a fold over k in ascending order, split
//     at fixed kKc boundaries (a per-block register fold, blocks then added
//     to C in ascending block order). The fold therefore depends only on k,
//     never on m, n, the batch composition, or the worker count;
//   * the microtile is runtime-dispatched per util::active_kernel_target()
//     (see src/kernels/dispatch.h): the scalar tile folds with separate
//     mul+add roundings (matching sgemm_reference), the avx2/avx512/neon
//     tiles fold with fused multiply-add (matching sgemm_reference_fused;
//     avx512 and avx2 are bitwise equal). Low
//     bits may therefore differ *across* targets; within one target every
//     result is bitwise deterministic;
//   * no zero-skip shortcuts: 0 * NaN and 0 * Inf propagate NaN as IEEE
//     demands (the naive loops this kernel replaced silently dropped them);
//   * transpose handling happens entirely in the pack step, so
//     sgemm_nn(A, B^T-materialized), sgemm_nt(A, B) and friends are bitwise
//     identical whenever their operands hold the same values.
//
// Determinism: row microtiles are distributed over util::parallel_for with
// chunk boundaries that depend only on (m, block sizes) — the same invariant the serving
// engine guarantees across replica counts — so results are bitwise identical
// for any BLURNET_WORKERS value. Each worker packs its own A panels into
// thread-local scratch and all workers read one shared packed-B panel, so a
// warm serving thread performs no allocations here. A GEMM with fewer rows
// than the target's microtile runs serially through kernels::gemm_row where
// the target has one, with the same per-element fold.
#pragma once

#include <cstdint>

namespace blurnet::linalg {

/// How an operand of sgemm is stored. kNo: the operand is the [rows, cols]
/// matrix itself. kYes: the operand stores the transpose, i.e. op(X) = X^T.
enum class Trans { kNo, kYes };

// Blocking parameters, exposed so tests can target partial-tile edges.
// kMr is the *scalar* microtile height; the avx2 target runs an 8-row tile
// and avx512 a 16-row one (kernels::gemm_microkernel(target).mr), and kMc
// is a multiple of every target's.
inline constexpr std::int64_t kMr = 4;    ///< microtile rows (register block)
inline constexpr std::int64_t kNr = 8;    ///< microtile cols (register block)
inline constexpr std::int64_t kMc = 32;   ///< A panel rows (parallel grain)
inline constexpr std::int64_t kKc = 256;  ///< k block (packed panel depth)
inline constexpr std::int64_t kNc = 1024; ///< B panel cols (L2/L3 block)

/// C[m,n] = op(A)[m,k] * op(B)[k,n]  (accumulate=false: overwrite C)
/// C[m,n] += op(A) * op(B)           (accumulate=true)
///
/// All matrices are dense row-major. `lda`/`ldb`/`ldc` are leading
/// dimensions of the *stored* operands: op(A)=A means A is [m, k] with
/// stride lda; op(A)=A^T means the buffer holds [k, m] with stride lda.
/// Empty problems are well-defined: m==0 or n==0 is a no-op; k==0 zeroes C
/// unless accumulating.
void sgemm(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, const float* a, std::int64_t lda, const float* b,
           std::int64_t ldb, float* c, std::int64_t ldc, bool accumulate);

// Tight-layout convenience wrappers (leading dimension == stored width).
inline void sgemm_nn(std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, const float* b, float* c, bool accumulate) {
  sgemm(Trans::kNo, Trans::kNo, m, n, k, a, k, b, n, c, n, accumulate);
}
inline void sgemm_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, const float* b, float* c, bool accumulate) {
  sgemm(Trans::kNo, Trans::kYes, m, n, k, a, k, b, k, c, n, accumulate);
}
inline void sgemm_tn(std::int64_t m, std::int64_t n, std::int64_t k,
                     const float* a, const float* b, float* c, bool accumulate) {
  sgemm(Trans::kYes, Trans::kNo, m, n, k, a, m, b, n, c, n, accumulate);
}

/// Naive triple-loop reference with the same numeric contract as the
/// *scalar* microtile (float ascending-k fold split at kKc boundaries,
/// separate mul+add roundings, no zero-skip). Serial, kept as the ground
/// truth the scalar target is tested against; not used on any hot path.
void sgemm_reference(Trans trans_a, Trans trans_b, std::int64_t m,
                     std::int64_t n, std::int64_t k, const float* a,
                     std::int64_t lda, const float* b, std::int64_t ldb,
                     float* c, std::int64_t ldc, bool accumulate);

/// Same fold structure, but each term folded with std::fma — the
/// correctly-rounded fused multiply-add the avx2/avx512/neon microtiles
/// use — so it is the bitwise ground truth for the fused dispatch targets.
void sgemm_reference_fused(Trans trans_a, Trans trans_b, std::int64_t m,
                           std::int64_t n, std::int64_t k, const float* a,
                           std::int64_t lda, const float* b, std::int64_t ldb,
                           float* c, std::int64_t ldc, bool accumulate);

}  // namespace blurnet::linalg
