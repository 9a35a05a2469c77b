#include "src/linalg/gemm.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/kernels/dispatch.h"
#include "src/util/parallel.h"

namespace blurnet::linalg {

namespace {

// Per-thread pack scratch, the GEMM analogue of the autograd ConvScratch:
// serving replays the same shapes forever, so after the first call on a pool
// thread both panels are warm and a forward pass performs no allocations
// here. Workers pack their own A panels; the shared B panel is packed by the
// producer thread and read (never written) by the workers for the duration
// of the parallel region, which the region's join fences.
struct PackScratch {
  std::vector<float> a;
  std::vector<float> b;
};

PackScratch& pack_scratch() {
  thread_local PackScratch scratch;
  return scratch;
}

inline float load_a(Trans trans, const float* a, std::int64_t lda,
                    std::int64_t i, std::int64_t kk) {
  return trans == Trans::kNo ? a[i * lda + kk] : a[kk * lda + i];
}

inline float load_b(Trans trans, const float* b, std::int64_t ldb,
                    std::int64_t kk, std::int64_t j) {
  return trans == Trans::kNo ? b[kk * ldb + j] : b[j * ldb + kk];
}

// Pack op(B)[kb .. kb+kc, jc .. jc+nc) into kNr-wide column panels:
//   packed[(jt * kc + kk) * kNr + jj] = op(B)[kb + kk, jc + jt*kNr + jj]
// with zero fill past the last valid column, so the microkernel never
// branches on partial tiles (the padded lanes are discarded on writeback).
void pack_b_panel(Trans trans, const float* b, std::int64_t ldb,
                  std::int64_t kb, std::int64_t kc, std::int64_t jc,
                  std::int64_t nc, float* packed) {
  const std::int64_t tiles = (nc + kNr - 1) / kNr;
  for (std::int64_t jt = 0; jt < tiles; ++jt) {
    const std::int64_t j0 = jc + jt * kNr;
    const std::int64_t jn = std::min<std::int64_t>(kNr, jc + nc - j0);
    float* dst = packed + jt * kc * kNr;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      float* row = dst + kk * kNr;
      for (std::int64_t jj = 0; jj < jn; ++jj) {
        row[jj] = load_b(trans, b, ldb, kb + kk, j0 + jj);
      }
      std::fill(row + jn, row + kNr, 0.0f);
    }
  }
}

// Pack op(A)[i0 .. i0+mc, kb .. kb+kc) into mr-tall row panels:
//   packed[(it * kc + kk) * mr + ii] = op(A)[i0 + it*mr + ii, kb + kk]
// zero filled past the last valid row. `mr` is the microtile height of the
// active kernel target (kMr for scalar/neon, 8 for avx2, 16 for avx512).
void pack_a_panel(Trans trans, const float* a, std::int64_t lda,
                  std::int64_t i0, std::int64_t mc, std::int64_t kb,
                  std::int64_t kc, std::int64_t mr, float* packed) {
  const std::int64_t tiles = (mc + mr - 1) / mr;
  for (std::int64_t it = 0; it < tiles; ++it) {
    const std::int64_t r0 = i0 + it * mr;
    const std::int64_t rn = std::min<std::int64_t>(mr, i0 + mc - r0);
    float* dst = packed + it * kc * mr;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      float* col = dst + kk * mr;
      for (std::int64_t ii = 0; ii < rn; ++ii) {
        col[ii] = load_a(trans, a, lda, r0 + ii, kb + kk);
      }
      std::fill(col + rn, col + mr, 0.0f);
    }
  }
}

// The mr x kNr register microtile itself lives behind the kernel dispatch
// (kernels::gemm_microkernel): acc = sum_{kk < kc} ap[:,kk] * b-row[kk,:].
// ap is one packed A tile (mr floats per kk); the B tile is read ldb-strided
// — either from a packed panel (ldb == kNr) or directly from a row-major B
// whose kNr-wide slice is contiguous per kk (the NN/TN fast path that skips
// packing B altogether). Each acc element is a strict ascending-k fold —
// the documented accumulation contract — identical for both B layouts.
// Scalar folds with separate mul+add; the avx2/avx512/neon tiles fold with
// fused multiply-add (one rounding per term), the documented per-target
// numerics modelled exactly by sgemm_reference_fused. kernels::gemm_store
// writes each tile back: the first k-block stored, later blocks added.
static_assert(kNr == kernels::kGemmNr, "B pack width must match the microtiles");
static_assert(kMc % kernels::kGemmMaxMr == 0,
              "panel rows must hold whole microtiles for every target");

// A GEMM with fewer rows than the microtile (the dense head at small batch)
// runs row by row through the target's row kernel instead of computing
// mr - m zero rows. Each row's k-block is gathered into a contiguous buffer
// and B is read in place, so per element this is the microtile's fold over
// the same operands, k-blocks stored then added in ascending order. Serial:
// m < mr is one microtile row, which the tiled path never split either.
void sgemm_rows(kernels::GemmRowFn row_fn, kernels::GemmStoreFn store_fn, Trans trans_a,
                std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
                std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                std::int64_t ldc, bool accumulate) {
  float arow[kKc];
  float acc[kNc];
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
      const std::int64_t nc = std::min(kNc, n - jc);
      float* crow = c + i * ldc + jc;
      for (std::int64_t kb = 0; kb < k; kb += kKc) {
        const std::int64_t kc = std::min(kKc, k - kb);
        for (std::int64_t kk = 0; kk < kc; ++kk) arow[kk] = load_a(trans_a, a, lda, i, kb + kk);
        row_fn(kc, arow, b + kb * ldb + jc, ldb, nc, acc);
        // The tile path's writeback, one kNr-wide row slice at a time, so a
        // row's bits (NaN signs included) do not depend on m < mr.
        for (std::int64_t j0 = 0; j0 < nc; j0 += kNr) {
          store_fn(acc + j0, 1, std::min(kNr, nc - j0), crow + j0, ldc, kb == 0 && !accumulate,
                   /*bias=*/nullptr, /*relu=*/false);
        }
      }
    }
  }
}

}  // namespace

void sgemm(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, const float* a, std::int64_t lda, const float* b,
           std::int64_t ldb, float* c, std::int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (std::int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
      }
    }
    return;
  }

  // Resolved once per call: the microtile height shapes the A packing and
  // the parallel chunking below, and both depend only on the target — so
  // within one target every chunk boundary (and result) stays bitwise
  // identical for any worker count.
  const util::KernelTarget target = util::active_kernel_target();
  const kernels::GemmMicrokernel& mk = kernels::gemm_microkernel(target);
  const kernels::GemmStoreFn store_fn = kernels::gemm_store(target);
  const std::int64_t mr = mk.mr;
  if (m < mr && trans_b == Trans::kNo) {
    if (const kernels::GemmRowFn row_fn = kernels::gemm_row(target)) {
      sgemm_rows(row_fn, store_fn, trans_a, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
      return;
    }
  }

  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t nc = std::min(kNc, n - jc);
    const std::int64_t n_tiles = (nc + kNr - 1) / kNr;
    for (std::int64_t kb = 0; kb < k; kb += kKc) {
      const std::int64_t kc = std::min(kKc, k - kb);
      // The first k-block of a non-accumulating GEMM overwrites C; every
      // later block adds its register fold, giving the ascending-block sum.
      const bool store = (kb == 0) && !accumulate;

      // A non-transposed B already presents each microtile as a contiguous
      // kNr-wide slice per kk, so full tiles are read in place and only a
      // partial tail tile is packed (zero-padded). A transposed B is packed
      // wholesale to turn its strided columns into contiguous panels. Either
      // way the arithmetic order is identical, so the layouts are
      // bitwise-interchangeable.
      const bool direct_b = (trans_b == Trans::kNo);
      const std::int64_t packed_tiles = direct_b ? (nc % kNr ? 1 : 0) : n_tiles;
      auto& producer_scratch = pack_scratch();
      float* packed_b = nullptr;
      if (packed_tiles > 0) {
        producer_scratch.b.resize(static_cast<std::size_t>(packed_tiles * kc * kNr));
        packed_b = producer_scratch.b.data();
        if (direct_b) {
          const std::int64_t tail = jc + (n_tiles - 1) * kNr;
          pack_b_panel(trans_b, b, ldb, kb, kc, tail, jc + nc - tail, packed_b);
        } else {
          pack_b_panel(trans_b, b, ldb, kb, kc, jc, nc, packed_b);
        }
      }

      // Row microtiles are the unit of parallelism; each parallel chunk is
      // processed in packing panels of at most kMc rows. min_chunk is a pure
      // function of m — kMc-row chunks normally, kMr*2-row chunks when the
      // whole problem is small (the dense head's m == batch) so it still
      // fans out — so chunk boundaries, and therefore results, are identical
      // for any worker count.
      const std::int64_t panel_tiles = kMc / mr;
      const std::int64_t total_tiles = (m + mr - 1) / mr;
      const std::int64_t chunk_tiles = total_tiles >= 2 * panel_tiles ? panel_tiles : 2;
      util::parallel_for(total_tiles, [&](std::int64_t t0, std::int64_t t1) {
        auto& scratch = pack_scratch();
        for (std::int64_t tp = t0; tp < t1; tp += panel_tiles) {
          const std::int64_t i0 = tp * mr;
          const std::int64_t mc =
              std::min(m, std::min(t1, tp + panel_tiles) * mr) - i0;
          const std::int64_t m_tiles = (mc + mr - 1) / mr;
          scratch.a.resize(static_cast<std::size_t>(m_tiles * kc * mr));
          pack_a_panel(trans_a, a, lda, i0, mc, kb, kc, mr, scratch.a.data());

          for (std::int64_t jt = 0; jt < n_tiles; ++jt) {
            const std::int64_t j0 = jc + jt * kNr;
            const std::int64_t jn = std::min<std::int64_t>(kNr, jc + nc - j0);
            const bool full = (jn == kNr);
            const float* b_tile = (direct_b && full)
                                      ? b + kb * ldb + j0
                                      : packed_b + (direct_b ? 0 : jt * kc * kNr);
            const std::int64_t b_stride = (direct_b && full) ? ldb : kNr;
            for (std::int64_t it = 0; it < m_tiles; ++it) {
              const std::int64_t r0 = i0 + it * mr;
              const std::int64_t rn = std::min<std::int64_t>(mr, i0 + mc - r0);
              float acc[kernels::kGemmMaxMr * kNr];
              mk.fn(kc, scratch.a.data() + it * kc * mr, b_tile, b_stride, acc);
              store_fn(acc, rn, jn, c + r0 * ldc + j0, ldc, store,
                       /*bias=*/nullptr, /*relu=*/false);
            }
          }
        }
      }, /*min_chunk=*/chunk_tiles);
    }
  }
}

void sgemm_reference(Trans trans_a, Trans trans_b, std::int64_t m,
                     std::int64_t n, std::int64_t k, const float* a,
                     std::int64_t lda, const float* b, std::int64_t ldb,
                     float* c, std::int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      // Same contract as the packed kernel: a float fold over ascending k,
      // split at kKc boundaries, with no zero-skip shortcut.
      float* out = c + i * ldc + j;
      bool store = !accumulate;
      for (std::int64_t kb = 0; kb < k; kb += kKc) {
        const std::int64_t kc = std::min(kKc, k - kb);
        float acc = 0.0f;
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          acc += load_a(trans_a, a, lda, i, kb + kk) *
                 load_b(trans_b, b, ldb, kb + kk, j);
        }
        if (store) {
          *out = acc;
          store = false;
        } else {
          *out += acc;
        }
      }
      if (store) *out = 0.0f;  // k == 0, overwrite mode
    }
  }
}

void sgemm_reference_fused(Trans trans_a, Trans trans_b, std::int64_t m,
                           std::int64_t n, std::int64_t k, const float* a,
                           std::int64_t lda, const float* b, std::int64_t ldb,
                           float* c, std::int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      // Same fold structure as sgemm_reference, but each term is folded in
      // with std::fma — correctly-rounded fused multiply-add, the exact
      // per-term rounding of the avx2/avx512/neon microtiles — so this
      // models the fused targets bit for bit.
      float* out = c + i * ldc + j;
      bool store = !accumulate;
      for (std::int64_t kb = 0; kb < k; kb += kKc) {
        const std::int64_t kc = std::min(kKc, k - kb);
        float acc = 0.0f;
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          acc = std::fma(load_a(trans_a, a, lda, i, kb + kk),
                         load_b(trans_b, b, ldb, kb + kk, j), acc);
        }
        if (store) {
          *out = acc;
          store = false;
        } else {
          *out += acc;
        }
      }
      if (store) *out = 0.0f;  // k == 0, overwrite mode
    }
  }
}

}  // namespace blurnet::linalg
