#include "src/util/cpu_caps.h"

#include <atomic>
#include <stdexcept>

#include "src/util/env.h"

#if defined(BLURNET_HAVE_AVX512_KERNELS) && (defined(__x86_64__) || defined(_M_X64))
#include <cpuid.h>
#endif

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace blurnet::util {
namespace {

#if defined(BLURNET_HAVE_AVX512_KERNELS) && (defined(__x86_64__) || defined(_M_X64))
// True when the OS saves the full AVX-512 register state on context switch:
// XCR0 must enable SSE, AVX (YMM upper halves), the opmask registers and
// both ZMM state components (bits 1, 2, 5, 6, 7). XGETBV is only legal when
// CPUID reports OSXSAVE, so check that first.
bool os_saves_zmm_state() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || (ecx & bit_OSXSAVE) == 0) return false;
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  constexpr unsigned kZmmState = (1u << 1) | (1u << 2) | (1u << 5) | (1u << 6) | (1u << 7);
  return (xcr0_lo & kZmmState) == kZmmState;
}
#endif

CpuCaps probe_caps() {
  CpuCaps caps;
#if defined(BLURNET_HAVE_AVX2_KERNELS) && (defined(__x86_64__) || defined(_M_X64))
  caps.avx2_fma =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
#if defined(BLURNET_HAVE_AVX512_KERNELS) && (defined(__x86_64__) || defined(_M_X64))
  // avx512 dispatches every kernel but its GEMM tile to the avx2 TU, so it
  // requires avx2_fma as well.
  caps.avx512 = caps.avx2_fma && __builtin_cpu_supports("avx512f") &&
                __builtin_cpu_supports("avx512vl") && os_saves_zmm_state();
#endif
#if defined(BLURNET_HAVE_NEON_KERNELS) && defined(__aarch64__)
#if defined(__linux__)
  caps.neon = (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
  caps.neon = true;  // ASIMD is mandatory in AArch64 baseline
#endif
#endif
  return caps;
}

KernelTarget resolve_from_env() {
  const CpuCaps& caps = cpu_caps();
  if (auto forced = env_string("BLURNET_FORCE_KERNEL"); forced && !forced->empty()) {
    KernelTarget target = parse_kernel_target(*forced);
    if (!kernel_target_available(target)) {
      throw std::invalid_argument(
          "BLURNET_FORCE_KERNEL=" + *forced + ": target '" + *forced +
          "' is not available on this host/build (host caps: avx2_fma=" +
          (caps.avx2_fma ? "yes" : "no") + ", avx512=" +
          (caps.avx512 ? "yes" : "no") + ", neon=" +
          (caps.neon ? "yes" : "no") + "); 'scalar' always works");
    }
    return target;
  }
  if (caps.avx512) return KernelTarget::kAvx512;
  if (caps.avx2_fma) return KernelTarget::kAvx2;
  if (caps.neon) return KernelTarget::kNeon;
  return KernelTarget::kScalar;
}

// -1: unresolved; otherwise a KernelTarget value.
std::atomic<int> g_active{-1};

}  // namespace

const CpuCaps& cpu_caps() {
  static const CpuCaps caps = probe_caps();
  return caps;
}

bool kernel_target_available(KernelTarget target) {
  switch (target) {
    case KernelTarget::kScalar: return true;
    case KernelTarget::kAvx2: return cpu_caps().avx2_fma;
    case KernelTarget::kAvx512: return cpu_caps().avx512;
    case KernelTarget::kNeon: return cpu_caps().neon;
  }
  return false;
}

KernelTarget active_kernel_target() {
  int cached = g_active.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<KernelTarget>(cached);
  KernelTarget resolved = resolve_from_env();
  // Benign race: every thread resolves to the same value.
  g_active.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

const char* kernel_target_name(KernelTarget target) {
  switch (target) {
    case KernelTarget::kScalar: return "scalar";
    case KernelTarget::kAvx2: return "avx2";
    case KernelTarget::kAvx512: return "avx512";
    case KernelTarget::kNeon: return "neon";
  }
  return "unknown";
}

KernelTarget parse_kernel_target(const std::string& name) {
  if (name == "scalar") return KernelTarget::kScalar;
  if (name == "avx2") return KernelTarget::kAvx2;
  if (name == "avx512") return KernelTarget::kAvx512;
  if (name == "neon") return KernelTarget::kNeon;
  throw std::invalid_argument("unknown kernel target '" + name +
                              "' (expected scalar, avx2, avx512, or neon)");
}

void set_kernel_target(KernelTarget target) {
  if (!kernel_target_available(target)) {
    throw std::invalid_argument(
        std::string("kernel target '") + kernel_target_name(target) +
        "' is not available on this host/build");
  }
  g_active.store(static_cast<int>(target), std::memory_order_relaxed);
}

void reset_kernel_target() {
  g_active.store(-1, std::memory_order_relaxed);
}

}  // namespace blurnet::util
