// Runtime CPU-capability probe and SIMD kernel-target selection.
//
// The hot float loops (linalg::sgemm microtile, the conv store epilogue,
// signal::filter_plane, the depthwise conv taps, autograd::affine_warp, the
// input-transform median/DCT kernels) are routed through per-ISA
// implementations picked once per process:
//
//   * probe the host once (cpuid-style builtins on x86-64, plus XGETBV for
//     the OS-enabled ZMM state behind avx512; auxv on aarch64) and intersect
//     with what this binary was compiled with;
//   * honour BLURNET_FORCE_KERNEL=scalar|avx2|avx512|neon as an override —
//     unknown or unavailable values fail fast with a descriptive
//     std::invalid_argument, the same contract as serve::EngineConfig
//     validation; an empty value counts as unset;
//   * cache the decision in an atomic so steady-state dispatch is one
//     relaxed load.
//
// Determinism contract (documented in README "SIMD dispatch"): within one
// kernel target, every result is bitwise identical for any worker count,
// replica count, batch split, and queue capacity — the SIMD kernels keep
// the scalar chunking invariants and accumulation orders. Across targets,
// only the GEMM microtile may differ (AVX2/AVX-512/NEON use fused
// multiply-add, one rounding per term instead of two); every non-GEMM kernel
// reproduces the scalar numerics bit-for-bit on all targets. avx512 and avx2
// are bitwise equal everywhere: avx512's only own kernel is a 16x8 GEMM tile
// whose per-element FMA chain is the avx2 8x8 tile's, and every other kernel
// it dispatches is the avx2 one.
//
// set_kernel_target() exists for tests and benches; call it only between
// computations, never while another thread is inside a kernel.
#pragma once

#include <string>

namespace blurnet::util {

/// Which microkernel family dispatch resolves to.
enum class KernelTarget { kScalar, kAvx2, kAvx512, kNeon };

/// What the host supports, intersected with what this binary carries.
/// (A build without the AVX2 translation unit reports avx2_fma=false even
/// on an AVX2 machine — the probe answers "can we dispatch to it".)
struct CpuCaps {
  bool avx2_fma = false;  ///< x86-64 with AVX2 and FMA3, kernels compiled in
  /// avx2_fma plus AVX-512 F and VL with the ZMM/opmask state enabled by the
  /// OS (XCR0), and the avx512 kernel TU compiled in.
  bool avx512 = false;
  bool neon = false;      ///< aarch64 ASIMD, kernels compiled in
};

/// Probe-once host capabilities (cached after the first call).
const CpuCaps& cpu_caps();

/// True when `target` can execute on this host in this binary. kScalar is
/// always available.
bool kernel_target_available(KernelTarget target);

/// The target every dispatched kernel uses: the BLURNET_FORCE_KERNEL
/// override when set (else the best available of avx512 > avx2 > neon >
/// scalar),
/// resolved once and cached. Throws std::invalid_argument when the env
/// var names an unknown target or one this host/binary cannot run.
KernelTarget active_kernel_target();

/// "scalar" / "avx2" / "avx512" / "neon" — stable names, also the accepted
/// BLURNET_FORCE_KERNEL spellings.
const char* kernel_target_name(KernelTarget target);

/// Parse a BLURNET_FORCE_KERNEL spelling. Throws std::invalid_argument
/// listing the accepted values on anything else (including "").
KernelTarget parse_kernel_target(const std::string& name);

/// Test/bench hook: force the active target for the rest of the process
/// (or until reset_kernel_target). Throws std::invalid_argument when the
/// target is not available on this host. Not safe to call concurrently
/// with running kernels.
void set_kernel_target(KernelTarget target);

/// Drop any set_kernel_target() override and re-resolve from the
/// environment on the next active_kernel_target() call.
void reset_kernel_target();

}  // namespace blurnet::util
