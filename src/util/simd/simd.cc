// Dispatch: CPUID probing, the FAIRCAP_SIMD knob, level pinning, and the
// scalar kernel tier. The AVX2/AVX-512 tiers live in their own
// translation units (simd_avx2.cc / simd_avx512.cc) compiled with
// per-file -march flags; FAIRCAP_SIMD_HAVE_* say whether the build
// included them.

#include "util/simd/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/logging.h"
#include "util/obs/metrics.h"
#include "util/simd/simd_kernels_core.h"

namespace faircap {
namespace simd {

#if FAIRCAP_SIMD_HAVE_AVX2
const Kernels* GetAvx2Kernels();  // simd_avx2.cc
#endif
#if FAIRCAP_SIMD_HAVE_AVX512
const Kernels* GetAvx512Kernels();  // simd_avx512.cc
#endif

namespace {

const Kernels kScalarKernels = {
    core::ScalarPopcount,
    core::ScalarAndCount,
    core::ScalarAndNotCount,
    core::ScalarAndInplace,
    core::ScalarOrInplace,
    core::ScalarAndNotInplace,
    core::ScalarMaskCodesEq,
    core::ScalarMaskCodesNe,
    core::ScalarMaskNumericCmp,
    core::CateAccumulate,
    core::CateAccumulateCompact,
};

SimdLevel DetectMaxLevel() {
#if FAIRCAP_SIMD_HAVE_AVX2 || FAIRCAP_SIMD_HAVE_AVX512
  __builtin_cpu_init();
#endif
#if FAIRCAP_SIMD_HAVE_AVX512
  // The AVX-512 tier is compiled against F/BW/DQ/VL plus VPOPCNTDQ (its
  // popcount kernels); require all of them before dispatching to it.
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    return SimdLevel::kAvx512;
  }
#endif
#if FAIRCAP_SIMD_HAVE_AVX2
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

// The active tier's kernel table; null until first resolution. Kernel
// lookups are one acquire load on this pointer.
std::atomic<const Kernels*> g_active_kernels{nullptr};
std::atomic<int> g_active_level{-1};
std::once_flag g_init_once;

void ResolveStartupLevel() {
  SimdLevel level = MaxSupportedSimdLevel();
  // Under std::call_once, before kernels dispatch; no setenv in-process.
  const char* env = std::getenv("FAIRCAP_SIMD");  // NOLINT(concurrency-mt-unsafe)
  if (env != nullptr && env[0] != '\0') {
    SimdLevel requested;
    if (!ParseSimdLevel(env, &requested)) {
      std::fprintf(stderr,
                   "faircap: ignoring unknown FAIRCAP_SIMD value '%s' "
                   "(want scalar|avx2|avx512)\n",
                   env);
    } else if (requested > level) {
      // Clamp rather than fail: an over-ambitious pin on a lesser host
      // still runs (results are identical at every tier), it just cannot
      // exercise the missing ISA.
      std::fprintf(stderr,
                   "faircap: FAIRCAP_SIMD=%s not supported on this host; "
                   "using %s\n",
                   env, SimdLevelName(level));
    } else {
      level = requested;
    }
  }
  g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_active_kernels.store(KernelsFor(level), std::memory_order_release);
  obs::MetricsRegistry::Global()
      .GetGauge("simd.level")
      .Set(static_cast<double>(level));
}

void EnsureResolved() { std::call_once(g_init_once, ResolveStartupLevel); }

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "unknown";
}

bool ParseSimdLevel(const std::string& name, SimdLevel* level) {
  if (name == "scalar") {
    *level = SimdLevel::kScalar;
  } else if (name == "avx2") {
    *level = SimdLevel::kAvx2;
  } else if (name == "avx512") {
    *level = SimdLevel::kAvx512;
  } else {
    return false;
  }
  return true;
}

SimdLevel MaxSupportedSimdLevel() {
  static const SimdLevel level = DetectMaxLevel();
  return level;
}

std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel max = MaxSupportedSimdLevel();
  if (max >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (max >= SimdLevel::kAvx512) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

SimdLevel ActiveSimdLevel() {
  EnsureResolved();
  return static_cast<SimdLevel>(
      g_active_level.load(std::memory_order_relaxed));
}

Status SetSimdLevel(SimdLevel level) {
  EnsureResolved();
  const Kernels* kernels = KernelsFor(level);
  if (kernels == nullptr) {
    return Status::InvalidArgument(
        std::string("SIMD level '") + SimdLevelName(level) +
        "' is not supported on this host/build (max: " +
        SimdLevelName(MaxSupportedSimdLevel()) + ")");
  }
  g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_active_kernels.store(kernels, std::memory_order_release);
  obs::MetricsRegistry::Global()
      .GetGauge("simd.level")
      .Set(static_cast<double>(level));
  return Status::OK();
}

ScopedSimdLevel::ScopedSimdLevel(SimdLevel level)
    : previous_(ActiveSimdLevel()) {
  // A pin that did not take would run, and pass, on another tier.
  FAIRCAP_CHECK(SetSimdLevel(level).ok());
}

ScopedSimdLevel::~ScopedSimdLevel() {
  const Status status = SetSimdLevel(previous_);
  (void)status;
}

const Kernels& ActiveKernels() {
  EnsureResolved();
  return *g_active_kernels.load(std::memory_order_acquire);
}

const Kernels* KernelsFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &kScalarKernels;
    case SimdLevel::kAvx2:
#if FAIRCAP_SIMD_HAVE_AVX2
      if (MaxSupportedSimdLevel() >= SimdLevel::kAvx2) {
        return GetAvx2Kernels();
      }
#endif
      return nullptr;
    case SimdLevel::kAvx512:
#if FAIRCAP_SIMD_HAVE_AVX512
      if (MaxSupportedSimdLevel() >= SimdLevel::kAvx512) {
        return GetAvx512Kernels();
      }
#endif
      return nullptr;
  }
  return nullptr;
}

}  // namespace simd
}  // namespace faircap
