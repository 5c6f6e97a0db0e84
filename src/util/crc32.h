#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

/// \file crc32.h
/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
/// guarding every section of the `.tlg` binary graph container (see
/// src/graph/binfmt.h). Incremental, with two bodies that give the same
/// value:
///   - a folded carry-less-multiply body (PCLMULQDQ, x86-64 only) takes
///     the 16-byte-multiple prefix of any span of at least 64 bytes, at
///     several GB/s;
///   - a 256-entry byte table takes the tail, short spans, non-x86
///     builds, and every span when the folded body is off (~0.3 GB/s).
/// The folded body runs when the CPU has PCLMULQDQ (checked once) and
/// ActiveSimdLevel() (src/util/cpu_features.h) is not kScalar, so
/// TRILIST_FORCE_SCALAR=1 pins the table.

namespace trilist {

/// Extends a running CRC-32 with `len` bytes. Start from `crc = 0`;
/// the pre/post inversion is handled internally, so
/// Crc32Update(Crc32Update(0, a), b) == Crc32(a ++ b).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);

/// One-shot CRC-32 of a byte range.
inline uint32_t Crc32(std::span<const std::byte> bytes) {
  return Crc32Update(0, bytes.data(), bytes.size());
}

}  // namespace trilist
