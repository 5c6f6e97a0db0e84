#pragma once

/// \file cpu_features.h
/// One-time runtime detection of the SIMD instruction sets the
/// intersection kernels (src/algo/simd/) can dispatch to. Detection runs
/// CPUID once per process; the resolved level is cached so the hot paths
/// read a plain enum.
///
/// Two environment overrides narrow (never widen) the dispatch:
///   TRILIST_FORCE_SCALAR=1   pin the portable scalar kernels.
///   TRILIST_SIMD=scalar|avx2|avx512
///                            cap the level (clamped to what the CPU has).
/// Overrides exist so the differential tests and the CI fallback leg can
/// exercise every dispatch seam on any machine.

namespace trilist {

/// Vector ISA tiers the intersection kernels are specialized for, in
/// strictly increasing capability order (comparisons rely on the order).
enum class SimdLevel {
  kScalar = 0,  ///< portable C++ loops; always available.
  kAvx2 = 1,    ///< 8 x 32-bit lanes (AVX2).
  kAvx512 = 2,  ///< 16 x 32-bit lanes (AVX-512F).
};

/// Name of a level ("scalar", "avx2", "avx512").
const char* SimdLevelName(SimdLevel level);

/// What the hardware supports, from CPUID; cached after the first call.
/// Non-x86 builds always report kScalar.
SimdLevel DetectedSimdLevel();

/// The level the kernels actually dispatch to: DetectedSimdLevel()
/// narrowed by the TRILIST_FORCE_SCALAR / TRILIST_SIMD environment
/// overrides. Cached after the first call (the envs are read once); safe
/// to call from any thread.
SimdLevel ActiveSimdLevel();

/// Pure resolution rule behind ActiveSimdLevel, exposed for unit tests:
/// `force_scalar` and `simd` are the raw env values (null = unset).
/// Unknown TRILIST_SIMD strings are ignored; requests above `detected`
/// clamp down to it.
SimdLevel ResolveSimdLevel(SimdLevel detected, const char* force_scalar,
                           const char* simd);

/// Test-only override of ActiveSimdLevel (clamped to the detected level);
/// pass the detected level to restore normal resolution. Dispatch reads
/// the level per call, so switch it from single-threaded test setup only.
void SetActiveSimdLevelForTest(SimdLevel level);

}  // namespace trilist
