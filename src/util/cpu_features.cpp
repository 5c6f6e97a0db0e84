#include "src/util/cpu_features.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace trilist {
namespace {

SimdLevel QueryCpu() {
#if defined(__x86_64__) || defined(_M_X64)
  // __builtin_cpu_supports reads CPUID once at startup via libgcc's
  // cpu-model resolver; these calls are just flag tests.
  if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

SimdLevel ParseLevel(const char* name, SimdLevel fallback) {
  if (name == nullptr) return fallback;
  if (std::strcmp(name, "scalar") == 0) return SimdLevel::kScalar;
  if (std::strcmp(name, "avx2") == 0) return SimdLevel::kAvx2;
  if (std::strcmp(name, "avx512") == 0) return SimdLevel::kAvx512;
  return fallback;
}

// SetActiveSimdLevelForTest's level, or -1 for the env-resolved one.
// Atomic because kernels and CRCs read the level from worker threads; a
// relaxed load is a plain load.
std::atomic<int> g_test_level{-1};

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "scalar";
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected = QueryCpu();
  return detected;
}

SimdLevel ResolveSimdLevel(SimdLevel detected, const char* force_scalar,
                           const char* simd) {
  if (force_scalar != nullptr && force_scalar[0] != '\0' &&
      std::strcmp(force_scalar, "0") != 0) {
    return SimdLevel::kScalar;
  }
  SimdLevel requested = ParseLevel(simd, detected);
  return requested < detected ? requested : detected;
}

SimdLevel ActiveSimdLevel() {
  static const SimdLevel resolved = ResolveSimdLevel(
      DetectedSimdLevel(), std::getenv("TRILIST_FORCE_SCALAR"),
      std::getenv("TRILIST_SIMD"));
  const int test_level = g_test_level.load(std::memory_order_relaxed);
  return test_level < 0 ? resolved : static_cast<SimdLevel>(test_level);
}

void SetActiveSimdLevelForTest(SimdLevel level) {
  SimdLevel detected = DetectedSimdLevel();
  g_test_level.store(static_cast<int>(level < detected ? level : detected),
                     std::memory_order_relaxed);
}

}  // namespace trilist
