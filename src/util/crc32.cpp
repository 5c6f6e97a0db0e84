#include "src/util/crc32.h"

#include <array>

#include "src/util/cpu_features.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace trilist {

namespace {

/// The 256-entry lookup table for the reflected IEEE polynomial, computed
/// once at first use (constexpr so it can live in read-only storage).
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

/// Byte-at-a-time update of the inverted running state `c`.
uint32_t TableUpdate(uint32_t c, const unsigned char* p, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__) || defined(_M_X64)

/// Shortest span the folded body takes: it keeps four 128-bit lanes.
constexpr size_t kFoldMin = 64;

/// Folds the 128-bit remainder `x` forward by the distance encoded in `k`
/// (low qword: x^(d+32) mod P, high qword: x^(d-32) mod P, both
/// bit-reflected) and adds the next block.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i x,
                                                               __m128i k,
                                                               __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Carry-less-multiply CRC-32 of `len` bytes (len >= 64, a multiple of
/// 16) from the inverted state `c`; returns the inverted state. Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009): four lanes fold 64 bytes per step, collapse
/// to one lane, fold the 16-byte blocks left, then reduce 128 -> 64 -> 32
/// bits with a Barrett step. The constants are the paper's bit-reflected
/// ones for polynomial 0x104C11DB7, as in zlib's crc32_simd.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldedUpdate(
    uint32_t c, const unsigned char* p, size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const unsigned char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = Fold(x1, k1k2, load(p));
    x2 = Fold(x2, k1k2, load(p + 16));
    x3 = Fold(x3, k1k2, load(p + 32));
    x4 = Fold(x4, k1k2, load(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = Fold(x1, k3k4, load(p));

  // 128 -> 64 bits, then 64 -> 32 (still reflected, so "high" bits sit at
  // the low end of the register).
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));

  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// Whether the CPU has PCLMULQDQ (and SSE4.1 for the final extract);
/// CPUID is read once.
bool CpuHasPclmul() {
  static const bool has =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return has;
}

#endif

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
#if defined(__x86_64__) || defined(_M_X64)
  // The active level is itself cached, so this is two flag tests; reading
  // it per call lets SetActiveSimdLevelForTest pin the table body.
  if (len >= kFoldMin && CpuHasPclmul() &&
      ActiveSimdLevel() != SimdLevel::kScalar) {
    const size_t folded = len & ~size_t{15};
    c = FoldedUpdate(c, p, folded);
    p += folded;
    len -= folded;
  }
#endif
  return TableUpdate(c, p, len) ^ 0xFFFFFFFFu;
}

}  // namespace trilist
