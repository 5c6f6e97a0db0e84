#include "src/graph/binfmt.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "src/graph/binfmt_layout.h"
#include "src/util/crc32.h"

namespace trilist {

// The on-disk structs and constants live in binfmt_layout.h, shared with
// the streaming writer (binfmt_stream.cpp) so both emit the same bytes.
using namespace tlg;  // NOLINT(build/namespaces)

namespace {

// The container is defined as little-endian with 64-bit offsets viewed
// in place as size_t; both hold on every platform this library targets.
static_assert(sizeof(size_t) == sizeof(uint64_t),
              ".tlg zero-copy loading requires 64-bit size_t");

/// Appends raw bytes to the stream and folds them into a running CRC.
void WritePiece(std::ofstream* out, uint32_t* crc, const void* data,
                size_t len) {
  out->write(static_cast<const char*>(data),
             static_cast<std::streamsize>(len));
  *crc = Crc32Update(*crc, data, len);
}

Status CorruptError(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("corrupt .tlg file " + path + ": " + what);
}

/// Bounds-checked typed view of a byte sub-range of the mapped file.
/// Alignment is guaranteed by the 8-byte section alignment plus the
/// layout of each section (64-bit arrays precede 32-bit ones).
template <typename T>
std::span<const T> TypedView(std::span<const std::byte> bytes,
                             size_t offset, size_t count) {
  return {reinterpret_cast<const T*>(bytes.data() + offset), count};
}

/// Validates one CSR offsets array: it starts at 0, never decreases and
/// ends at `total`, the element count of its neighbor array. O(n), and
/// reads no neighbor payload, so paged opens run it too: every row span
/// a kernel later forms from these offsets stays inside the mapping.
Status ValidateOffsets(std::span<const size_t> offsets, size_t total,
                       const std::string& path, const char* what) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != total) {
    return CorruptError(path, std::string(what) + " offsets malformed");
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return CorruptError(path,
                          std::string(what) + " offsets not monotone");
    }
  }
  return Status::OK();
}

/// Validates one CSR half: offsets as in ValidateOffsets, then every row
/// sorted strictly ascending with IDs below `num_nodes`.
Status ValidateCsr(std::span<const size_t> offsets,
                   std::span<const NodeId> neighbors, uint64_t num_nodes,
                   const std::string& path, const char* what) {
  // Full monotonicity first: only then is offsets[i + 1] <= back() a safe
  // bound for the row scans below.
  TRILIST_RETURN_NOT_OK(
      ValidateOffsets(offsets, neighbors.size(), path, what));
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    for (size_t j = offsets[i]; j < offsets[i + 1]; ++j) {
      if (neighbors[j] >= num_nodes) {
        return CorruptError(path,
                            std::string(what) + " neighbor out of range");
      }
      if (j > offsets[i] && neighbors[j - 1] >= neighbors[j]) {
        return CorruptError(path,
                            std::string(what) + " row not sorted");
      }
    }
  }
  return Status::OK();
}

}  // namespace

const char* TlgSectionTypeName(uint32_t type) {
  switch (type) {
    case kSecCsrOffsets: return "csr_offsets";
    case kSecCsrNeighbors: return "csr_neighbors";
    case kSecDegrees: return "degrees";
    case kSecOrientation: return "orientation";
    default: return "unknown";
  }
}

Status WriteTlgFile(const Graph& g, const std::string& path,
                    const TlgWriteOptions& options) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotImplemented(".tlg writing requires a little-endian "
                                  "host");
  }
  const uint64_t n = g.num_nodes();
  const uint64_t m = g.num_edges();
  // A default-constructed Graph has an empty offsets array; serialize it
  // as the canonical empty graph (offsets = {0}).
  static constexpr size_t kZeroOffset = 0;
  const std::span<const size_t> g_offsets =
      g.RawOffsets().empty() ? std::span<const size_t>(&kZeroOffset, 1)
                             : g.RawOffsets();

  // Precompute the requested orientations (deterministic for any thread
  // count, so `convert` output is reproducible byte for byte).
  std::vector<OrientedGraph> oriented;
  oriented.reserve(options.orientations.size());
  for (const OrientSpec& spec : options.orientations) {
    oriented.push_back(OrientWithSpec(g, spec, options.threads));
  }
  std::vector<int64_t> degrees;
  if (options.write_degrees) degrees = g.Degrees();

  // Lay out the section directory.
  struct Plan {
    uint32_t type;
    uint32_t aux;
    uint64_t length;
  };
  std::vector<Plan> plan;
  plan.push_back({kSecCsrOffsets, 0, (n + 1) * sizeof(uint64_t)});
  plan.push_back({kSecCsrNeighbors, 0, 2 * m * sizeof(NodeId)});
  if (options.write_degrees) {
    plan.push_back({kSecDegrees, 0, n * sizeof(int64_t)});
  }
  for (size_t i = 0; i < oriented.size(); ++i) {
    const uint64_t arcs = oriented[i].num_arcs();
    const uint64_t len = sizeof(OrientHeader) +
                         2 * (n + 1) * sizeof(uint64_t) +
                         2 * arcs * sizeof(NodeId) + n * sizeof(NodeId);
    plan.push_back({kSecOrientation, static_cast<uint32_t>(i), len});
  }

  std::vector<SectionEntry> table(plan.size());
  uint64_t cursor =
      sizeof(FileHeader) + plan.size() * sizeof(SectionEntry);
  for (size_t i = 0; i < plan.size(); ++i) {
    cursor = AlignUp8(cursor);
    table[i] = SectionEntry{plan[i].type, plan[i].aux, cursor,
                            plan[i].length, 0, 0};
    cursor += plan[i].length;
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }

  // Header and table are rewritten at the end once the CRCs are known;
  // reserve their bytes now so payload offsets are final.
  const std::vector<char> table_placeholder(
      sizeof(FileHeader) + table.size() * sizeof(SectionEntry), '\0');
  out.write(table_placeholder.data(),
            static_cast<std::streamsize>(table_placeholder.size()));

  uint64_t written = table_placeholder.size();
  const char pad[8] = {0};
  size_t orient_idx = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    const uint64_t aligned = AlignUp8(written);
    out.write(pad, static_cast<std::streamsize>(aligned - written));
    written = aligned;
    uint32_t crc = 0;
    switch (table[i].type) {
      case kSecCsrOffsets:
        WritePiece(&out, &crc, g_offsets.data(), g_offsets.size_bytes());
        break;
      case kSecCsrNeighbors:
        WritePiece(&out, &crc, g.RawNeighbors().data(),
                   g.RawNeighbors().size_bytes());
        break;
      case kSecDegrees:
        WritePiece(&out, &crc, degrees.data(),
                   degrees.size() * sizeof(int64_t));
        break;
      case kSecOrientation: {
        const OrientSpec& spec = options.orientations[orient_idx];
        const OrientedGraph& og = oriented[orient_idx];
        ++orient_idx;
        const OrientHeader oh{
            PermKindToCode(spec.kind), 0,
            spec.kind == PermutationKind::kUniform ? spec.seed : 0,
            og.num_arcs()};
        WritePiece(&out, &crc, &oh, sizeof(oh));
        WritePiece(&out, &crc, og.RawOutOffsets().data(),
                   og.RawOutOffsets().size_bytes());
        WritePiece(&out, &crc, og.RawInOffsets().data(),
                   og.RawInOffsets().size_bytes());
        WritePiece(&out, &crc, og.RawOutNeighbors().data(),
                   og.RawOutNeighbors().size_bytes());
        WritePiece(&out, &crc, og.RawInNeighbors().data(),
                   og.RawInNeighbors().size_bytes());
        WritePiece(&out, &crc, og.original_of().data(),
                   og.original_of().size_bytes());
        break;
      }
    }
    table[i].crc32 = crc;
    written += table[i].length;
  }

  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.section_count = static_cast<uint32_t>(table.size());
  header.num_nodes = n;
  header.num_edges = m;
  header.table_crc =
      Crc32Update(0, table.data(), table.size() * sizeof(SectionEntry));
  header.reserved = 0;

  out.seekp(0);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(table.data()),
            static_cast<std::streamsize>(table.size() *
                                         sizeof(SectionEntry)));
  out.flush();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

const OrientedGraph* TlgFile::FindOrientation(const OrientSpec& spec) const {
  for (size_t i = 0; i < orientation_specs_.size(); ++i) {
    if (orientation_specs_[i] == spec) return &orientations_[i];
  }
  return nullptr;
}

Result<TlgFile> TlgFile::Open(const std::string& path,
                              const TlgLoadOptions& options) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotImplemented(".tlg loading requires a little-endian "
                                  "host");
  }
  // Paged opens demand-page: no readahead hint, and the payload checks
  // below are skipped (they would touch every byte of the file). What a
  // paged open still checks is every offsets array (O(n), no neighbor
  // bytes), so a forged offset is a typed error here instead of a read
  // past the mapping later; rows that are in bounds but wrong are the
  // paged counter's run-time cursor check's to catch.
  const bool paged = options.paged;
  const bool verify_crc = options.verify_crc && !paged;
  const bool validate = options.validate && !paged;
  auto file = MmapFile::Open(path, options.backing,
                             paged ? MmapFile::Advice::kPaged
                                   : MmapFile::Advice::kEager);
  if (!file.ok()) return file.status();
  TlgFile out;
  out.paged_ = paged;
  out.file_ = std::make_shared<MmapFile>(std::move(file).ValueOrDie());
  const std::span<const std::byte> bytes = out.file_->bytes();

  if (bytes.size() < sizeof(FileHeader)) {
    return CorruptError(path, "shorter than the 40-byte header");
  }
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a .tlg file (bad magic): " + path);
  }
  if (header.version != kVersion) {
    return Status::InvalidArgument(
        "unsupported .tlg version " + std::to_string(header.version) +
        " in " + path);
  }
  out.version_ = header.version;
  const uint64_t n = header.num_nodes;
  const uint64_t m = header.num_edges;
  if (n >= std::numeric_limits<NodeId>::max()) {
    return CorruptError(path, "node count exceeds 32-bit ID space");
  }

  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (table_bytes > bytes.size() - sizeof(FileHeader)) {
    return CorruptError(path, "section table extends past end of file");
  }
  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), bytes.data() + sizeof(FileHeader),
              table_bytes);
  // The directory CRC is always cheap (32 B per section), so paged opens
  // keep it; only the payload passes below are gated.
  if (options.verify_crc) {
    const uint32_t got = Crc32Update(0, table.data(), table_bytes);
    if (got != header.table_crc) {
      return CorruptError(path, "section table CRC mismatch");
    }
  }

  // Bounds-check every directory entry before touching any payload.
  for (const SectionEntry& e : table) {
    if (e.offset % 8 != 0) {
      return CorruptError(path, "section offset not 8-byte aligned");
    }
    if (e.offset > bytes.size() || e.length > bytes.size() - e.offset) {
      return CorruptError(path, "section extends past end of file");
    }
  }
  if (verify_crc) {
    for (const SectionEntry& e : table) {
      const uint32_t got =
          Crc32Update(0, bytes.data() + e.offset, e.length);
      if (got != e.crc32) {
        return CorruptError(
            path, std::string(TlgSectionTypeName(e.type)) +
                      " section CRC mismatch");
      }
    }
  }
  out.sections_.reserve(table.size());
  for (const SectionEntry& e : table) {
    out.sections_.push_back({e.type, e.aux, e.offset, e.length, e.crc32});
  }

  // Locate and wire the mandatory CSR sections.
  const SectionEntry* sec_offsets = nullptr;
  const SectionEntry* sec_neighbors = nullptr;
  for (const SectionEntry& e : table) {
    if (e.type == kSecCsrOffsets) sec_offsets = &e;
    if (e.type == kSecCsrNeighbors) sec_neighbors = &e;
  }
  if (sec_offsets == nullptr || sec_neighbors == nullptr) {
    return CorruptError(path, "missing CSR sections");
  }
  // Reject counts whose sections could not possibly fit in the file
  // BEFORE any length arithmetic: with m near 2^62 an expression like
  // `2 * m * sizeof(NodeId)` below (and in the orientation `want`
  // computation) wraps mod 2^64, so a forged header could otherwise
  // pass every length/bounds/CRC check with a tiny section and hand the
  // validator a ~2^62-element view (the CRC is not a defense — it is
  // trivially recomputable by an attacker).
  if (m > bytes.size() / (2 * sizeof(NodeId))) {
    return CorruptError(path, "edge count impossible for file size");
  }
  if (n + 1 > bytes.size() / sizeof(uint64_t)) {
    return CorruptError(path, "node count impossible for file size");
  }
  if (sec_offsets->length != (n + 1) * sizeof(uint64_t)) {
    return CorruptError(path, "csr_offsets length disagrees with header");
  }
  if (sec_neighbors->length != 2 * m * sizeof(NodeId)) {
    return CorruptError(path,
                        "csr_neighbors length disagrees with header");
  }
  const auto offsets =
      TypedView<size_t>(bytes, sec_offsets->offset, n + 1);
  const auto neighbors =
      TypedView<NodeId>(bytes, sec_neighbors->offset, 2 * m);
  if (validate) {
    TRILIST_RETURN_NOT_OK(
        ValidateCsr(offsets, neighbors, n, path, "graph"));
  } else if (options.validate) {
    TRILIST_RETURN_NOT_OK(
        ValidateOffsets(offsets, neighbors.size(), path, "graph"));
  }
  out.graph_ = Graph::FromCsrView(offsets, neighbors, out.file_);

  // Optional degree-sequence and orientation sections.
  for (const SectionEntry& e : table) {
    if (e.type == kSecDegrees) {
      if (e.length != n * sizeof(int64_t)) {
        return CorruptError(path, "degrees length disagrees with header");
      }
      out.degrees_ = TypedView<int64_t>(bytes, e.offset, n);
      if (validate) {
        for (uint64_t v = 0; v < n; ++v) {
          if (out.degrees_[v] !=
              static_cast<int64_t>(offsets[v + 1] - offsets[v])) {
            return CorruptError(path, "degrees disagree with CSR");
          }
        }
      }
    } else if (e.type == kSecOrientation) {
      if (e.length < sizeof(OrientHeader)) {
        return CorruptError(path, "orientation section too short");
      }
      OrientHeader oh;
      std::memcpy(&oh, bytes.data() + e.offset, sizeof(oh));
      PermutationKind kind;
      if (!PermKindFromCode(oh.perm_code, &kind)) {
        return CorruptError(path, "unknown orientation permutation code");
      }
      if (oh.num_arcs != m) {
        return CorruptError(path,
                            "orientation arc count disagrees with header");
      }
      const uint64_t want = sizeof(OrientHeader) +
                            2 * (n + 1) * sizeof(uint64_t) +
                            2 * m * sizeof(NodeId) + n * sizeof(NodeId);
      if (e.length != want) {
        return CorruptError(path, "orientation section length mismatch");
      }
      // 64-bit arrays first, then the 32-bit ones, so every view is
      // naturally aligned within the 8-byte-aligned section.
      uint64_t at = e.offset + sizeof(OrientHeader);
      const auto out_offsets = TypedView<size_t>(bytes, at, n + 1);
      at += (n + 1) * sizeof(uint64_t);
      const auto in_offsets = TypedView<size_t>(bytes, at, n + 1);
      at += (n + 1) * sizeof(uint64_t);
      const auto out_neighbors = TypedView<NodeId>(bytes, at, m);
      at += m * sizeof(NodeId);
      const auto in_neighbors = TypedView<NodeId>(bytes, at, m);
      at += m * sizeof(NodeId);
      const auto original_of = TypedView<NodeId>(bytes, at, n);
      if (validate) {
        TRILIST_RETURN_NOT_OK(ValidateCsr(out_offsets, out_neighbors, n,
                                          path, "orientation out"));
        TRILIST_RETURN_NOT_OK(ValidateCsr(in_offsets, in_neighbors, n,
                                          path, "orientation in"));
        for (uint64_t i = 0; i < n; ++i) {
          // The acyclic-orientation invariant the listing kernels assume:
          // out-rows below the node, in-rows above it.
          const auto row_out = out_offsets[i + 1];
          if (row_out > out_offsets[i] &&
              out_neighbors[row_out - 1] >= i) {
            return CorruptError(path, "orientation out-arc not downward");
          }
          if (in_offsets[i + 1] > in_offsets[i] &&
              in_neighbors[in_offsets[i]] <= i) {
            return CorruptError(path, "orientation in-arc not upward");
          }
          if (original_of[i] >= n) {
            return CorruptError(path,
                                "orientation original-of out of range");
          }
        }
      } else if (options.validate) {
        TRILIST_RETURN_NOT_OK(ValidateOffsets(out_offsets, m, path,
                                              "orientation out"));
        TRILIST_RETURN_NOT_OK(ValidateOffsets(in_offsets, m, path,
                                              "orientation in"));
      }
      out.orientation_specs_.push_back(OrientSpec{kind, oh.seed});
      out.orientations_.push_back(OrientedGraph::FromCsrView(
          out_offsets, out_neighbors, in_offsets, in_neighbors,
          original_of, out.file_));
    }
  }
  return out;
}

bool LooksLikeTlgFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[8];
  const bool ok = std::fread(magic, 1, sizeof(magic), f) == sizeof(magic) &&
                  std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace trilist
