#include "src/ooc/convert.h"

#include <fcntl.h>
#include <malloc.h>
#include <sys/stat.h>
#include <sys/statvfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <span>

#include "src/graph/binfmt_layout.h"
#include "src/graph/binfmt_stream.h"
#include "src/graph/edge_text.h"
#include "src/ooc/chunk_reader.h"
#include "src/ooc/external_sort.h"
#include "src/ooc/temp_file.h"
#include "src/order/named_orders.h"
#include "src/order/split.h"
#include "src/util/json_writer.h"
#include "src/util/rng.h"

namespace trilist::ooc {

namespace {

using std::chrono::steady_clock;

double SecondsSince(steady_clock::time_point t0) {
  return std::chrono::duration<double>(steady_clock::now() - t0).count();
}

constexpr uint64_t kMinBudget = 1ull << 20;

/// An unlinked temp file used as an append-then-replay byte stream (the
/// CSR neighbor staging area between the merge and write stages).
class TempStream {
 public:
  ~TempStream() {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Create(const std::string& tmpdir) {
    Result<int> fd = MakeUnlinkedTempFile(tmpdir, "trilist-csr");
    if (!fd.ok()) return fd.status();
    fd_ = *fd;
    return Status::OK();
  }

  Status Append(const void* data, size_t len) {
    const char* p = static_cast<const char*>(data);
    size_t done = 0;
    while (done < len) {
      const ssize_t put =
          ::pwrite(fd_, p + done, len - done,
                   static_cast<off_t>(size_ + done));
      if (put < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(std::string("temp write failed: ") +
                                std::strerror(errno));
      }
      done += static_cast<size_t>(put);
    }
    size_ += len;
    return Status::OK();
  }

  /// Streams the whole file back through `consume` in bounded chunks.
  Status Replay(size_t chunk_bytes,
                const std::function<Status(std::span<const char>)>&
                    consume) const {
    // Round the buffer up and every non-final chunk down to a multiple
    // of 8 so consumers that parse fixed-size records (u32 neighbors,
    // u64 packed arcs) never see one split across a chunk boundary.
    std::vector<char> buf((std::max<size_t>(chunk_bytes, 4096) + 7) &
                          ~size_t{7});
    uint64_t at = 0;
    while (at < size_) {
      size_t want = static_cast<size_t>(
          std::min<uint64_t>(buf.size(), size_ - at));
      if (at + want < size_) want &= ~size_t{7};
      size_t done = 0;
      while (done < want) {
        const ssize_t got =
            ::pread(fd_, buf.data() + done, want - done,
                    static_cast<off_t>(at + done));
        if (got < 0) {
          if (errno == EINTR) continue;
          return Status::Internal(std::string("temp read failed: ") +
                                  std::strerror(errno));
        }
        if (got == 0) return Status::Internal("temp file truncated");
        done += static_cast<size_t>(got);
      }
      TRILIST_RETURN_NOT_OK(
          consume(std::span<const char>(buf.data(), want)));
      at += want;
    }
    return Status::OK();
  }

  uint64_t size() const { return size_; }

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
};

/// Walks the CSR neighbor temp stream as (src, dst) arcs, recovering the
/// source from the degree counts (the stream is the concatenation of the
/// sorted rows in node order). `arc(src, dst)` returns a Status; a
/// template so the per-arc call inlines.
template <typename Arc>
Status ReplayArcs(const TempStream& csr, std::span<const uint32_t> degrees,
                  size_t chunk_bytes, Arc&& arc) {
  NodeId src = 0;
  uint64_t left = degrees.empty() ? 0 : degrees[0];
  return csr.Replay(chunk_bytes, [&](std::span<const char> bytes) {
    const auto* dst = reinterpret_cast<const NodeId*>(bytes.data());
    if (bytes.size() % sizeof(NodeId) != 0) {
      return Status::Internal("csr temp chunk not record-aligned");
    }
    const size_t count = bytes.size() / sizeof(NodeId);
    for (size_t i = 0; i < count; ++i) {
      while (left == 0) {
        if (++src >= degrees.size()) {
          return Status::Internal(
              "csr temp stream longer than the degree sum");
        }
        left = degrees[src];
      }
      TRILIST_RETURN_NOT_OK(arc(src, dst[i]));
      --left;
    }
    return Status::OK();
  });
}

/// Labels for one orientation spec: rank nodes by (degree asc, id asc)
/// and apply the positional permutation — the exact math of
/// order/pipeline.cpp, reproduced from the degree array alone so the
/// result (and thus the .tlg bytes) matches the in-memory path.
Result<std::vector<NodeId>> LabelsForSpec(
    std::span<const uint32_t> degrees, const OrientSpec& spec) {
  if (spec.kind == PermutationKind::kDegenerate ||
      spec.kind == PermutationKind::kAot) {
    return Status::InvalidArgument(
        std::string("out-of-core convert cannot embed the ") +
        PermutationKindName(spec.kind) +
        " order (it needs the whole graph in memory for its core "
        "decomposition)");
  }
  const size_t n = degrees.size();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (degrees[a] != degrees[b]) return degrees[a] < degrees[b];
    return a < b;
  });
  const Permutation theta = [&]() -> Permutation {
    if (spec.kind == PermutationKind::kSplit) {
      // Positional: a pure function of the ascending degree sequence,
      // which the sorted rank array gives us directly.
      std::vector<int64_t> ascending(n);
      for (size_t pos = 0; pos < n; ++pos) {
        ascending[pos] = static_cast<int64_t>(degrees[order[pos]]);
      }
      return TailoredSplitPermutation(ascending);
    }
    Rng rng(spec.seed);
    return MakePermutation(spec.kind, n, &rng);
  }();
  std::vector<NodeId> labels(n);
  for (size_t pos = 0; pos < n; ++pos) {
    labels[order[pos]] = theta(static_cast<NodeId>(pos));
  }
  return labels;
}

Status AppendU64Span(TlgStreamWriter* w, std::span<const uint64_t> v) {
  return w->Append(v.data(), v.size_bytes());
}

}  // namespace

std::string OocReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("schema", "trilist.ooc_convert_report");
  w.Field("schema_version", 1);
  w.Key("input");
  w.BeginObject();
  w.Field("bytes", input_bytes);
  w.Field("lines", static_cast<uint64_t>(ingest.lines));
  w.Field("edges_in", static_cast<uint64_t>(ingest.edges_in));
  w.Field("self_loops_dropped",
          static_cast<uint64_t>(ingest.self_loops_dropped));
  w.Field("duplicates_dropped",
          static_cast<uint64_t>(ingest.duplicates_dropped));
  w.EndObject();
  w.Key("graph");
  w.BeginObject();
  w.Field("num_nodes", static_cast<uint64_t>(ingest.num_nodes));
  w.Field("num_edges", static_cast<uint64_t>(ingest.num_edges));
  w.EndObject();
  w.Key("ooc");
  w.BeginObject();
  w.Field("mem_budget_bytes", mem_budget_bytes);
  w.Field("direct_io", direct_io);
  w.Field("spill_runs", spill_runs);
  w.Field("spill_bytes", spill_bytes);
  w.Field("csr_temp_bytes", csr_temp_bytes);
  w.Field("output_bytes", output_bytes);
  w.EndObject();
  w.Key("seconds");
  w.BeginObject();
  w.FieldDouble("parse", parse_seconds);
  w.FieldDouble("merge", merge_seconds);
  w.FieldDouble("write", write_seconds);
  w.FieldDouble("orient", orient_seconds);
  w.FieldDouble("sync", sync_seconds);
  w.FieldDouble("total", total_seconds);
  w.EndObject();
  w.EndObject();
  return std::move(w).Finish();
}

Status CheckTmpdirSpace(const std::string& input_path,
                        const std::string& tmpdir, size_t num_orientations,
                        uint64_t free_bytes_override) {
  struct stat st;
  if (::stat(input_path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
    return Status::InvalidArgument("cannot stat input: " + input_path);
  }
  const uint64_t input_bytes = static_cast<uint64_t>(st.st_size);

  // Project the record count from the head of the file: sample up to
  // 1 MiB, count newline-terminated data lines, scale by size. Crude but
  // it only needs to be right within the safety factor.
  uint64_t sample_bytes = 0;
  uint64_t sample_records = 0;
  {
    const int fd = ::open(input_path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::InvalidArgument("cannot open input: " + input_path);
    }
    std::vector<char> buf(std::min<uint64_t>(input_bytes, 1u << 20));
    ssize_t got = ::pread(fd, buf.data(), buf.size(), 0);
    ::close(fd);
    if (got < 0) got = 0;
    // Count only complete lines so the trailing fragment does not skew
    // the average line length.
    const char* p = buf.data();
    const char* end = buf.data() + got;
    while (p < end) {
      const char* nl =
          static_cast<const char*>(std::memchr(p, '\n', end - p));
      if (nl == nullptr) break;
      const char* s = p;
      while (s < nl && (*s == ' ' || *s == '\t' || *s == '\r')) ++s;
      if (s < nl && *s != '#' && *s != '%') ++sample_records;
      sample_bytes += static_cast<uint64_t>(nl - p) + 1;
      p = nl + 1;
    }
  }
  uint64_t est_edges = 0;
  if (sample_records > 0 && sample_bytes > 0) {
    const double avg_line =
        static_cast<double>(sample_bytes) /
        static_cast<double>(sample_records);
    est_edges = static_cast<uint64_t>(
        static_cast<double>(input_bytes) / avg_line);
  }

  // Temp usage: edge spill 16 B/edge (both arcs), CSR temp 8 B/edge,
  // plus 16 B/edge of oriented-arc spill per embedded orientation.
  // 1.25x covers projection error.
  const uint64_t projected = static_cast<uint64_t>(
      static_cast<double>(est_edges) *
      (24.0 + 16.0 * static_cast<double>(num_orientations)) * 1.25);

  uint64_t free_bytes = free_bytes_override;
  if (free_bytes == 0) {
    struct statvfs vfs;
    if (::statvfs(tmpdir.c_str(), &vfs) != 0) {
      return Status::InvalidArgument("cannot statvfs tmpdir " + tmpdir +
                                     ": " + std::strerror(errno));
    }
    free_bytes = static_cast<uint64_t>(vfs.f_bavail) *
                 static_cast<uint64_t>(vfs.f_frsize);
  }
  if (projected > free_bytes) {
    return Status::InvalidArgument(
        "tmpdir " + tmpdir + " has " + std::to_string(free_bytes) +
        " bytes free but the conversion is projected to spill about " +
        std::to_string(projected) +
        " bytes (~" + std::to_string(est_edges) +
        " edges); point --tmpdir at a larger filesystem");
  }
  return Status::OK();
}

Result<OocReport> OocConvertFile(const std::string& input_path,
                                 const std::string& output_path,
                                 const OocConvertOptions& options) {
  const auto t_start = steady_clock::now();
  OocReport report;
  const uint64_t budget =
      std::max<uint64_t>(options.mem_budget_bytes, kMinBudget);
  report.mem_budget_bytes = budget;

  for (const OrientSpec& spec : options.orientations) {
    if (spec.kind == PermutationKind::kDegenerate ||
        spec.kind == PermutationKind::kAot) {
      return Status::InvalidArgument(
          std::string("out-of-core convert cannot embed the ") +
          PermutationKindName(spec.kind) + " order");
    }
  }
  TRILIST_RETURN_NOT_OK(CheckTmpdirSpace(input_path, options.tmpdir,
                                         options.orientations.size(),
                                         options.free_bytes_override));

  // ---- Stage 1: parse + spill -------------------------------------
  // Budget split: the reader ring is capped at budget/8 and the edge
  // sorter's run buffer plus radix scratch get budget/2. Its merge
  // buffers (budget/4) replace them, so the two never overlap.
  ChunkReaderOptions reader_opts;
  reader_opts.workers = options.io_workers;
  reader_opts.queue_depth = std::max(1, options.queue_depth);
  reader_opts.chunk_bytes = std::min<uint64_t>(
      options.chunk_bytes,
      std::max<uint64_t>(budget / 8 /
                             static_cast<uint64_t>(reader_opts.queue_depth),
                         4096));
  reader_opts.direct_io = options.direct_io;
  auto reader_or = ChunkReader::Open(input_path, reader_opts);
  if (!reader_or.ok()) return reader_or.status();
  // Held in an optional so the ring buffers can be released the moment
  // parsing ends — they would otherwise count against every later
  // stage's share of the budget.
  std::optional<ChunkReader> reader(std::move(reader_or).ValueOrDie());
  report.input_bytes = static_cast<int64_t>(reader->file_size());

  ExternalU64Sorter edge_sorter(options.tmpdir, budget / 2, budget / 4);

  constexpr uint64_t kMaxRawId =
      std::numeric_limits<NodeId>::max() - 1;  // n = id + 1 must fit
  IngestStats stats;
  bool has_header = false;
  uint64_t header_nodes = 0;
  bool any_id = false;
  uint64_t max_id = 0;
  std::string carry;  // partial final line of the previous chunk
  EdgeTextChunk parsed;

  const auto consume_parsed = [&]() -> Status {
    if (parsed.has_error) {
      return Status::InvalidArgument(
          "malformed edge at line " +
          std::to_string(stats.lines + parsed.error_line) + ": '" +
          parsed.error_text + "'");
    }
    // Both arcs of every record, handed to the sorter a block at a time.
    std::array<uint64_t, 4096> block;
    size_t fill = 0;
    for (const RawEdgeRecord& e : parsed.records) {
      if (e.first > kMaxRawId || e.second > kMaxRawId) {
        return Status::OutOfRange(
            "graph too large for 32-bit node IDs: saw node " +
            std::to_string(std::max(e.first, e.second)));
      }
      block[fill++] = e.first << 32 | e.second;
      block[fill++] = e.second << 32 | e.first;
      if (fill == block.size()) {
        TRILIST_RETURN_NOT_OK(edge_sorter.AddBatch(block));
        fill = 0;
      }
    }
    TRILIST_RETURN_NOT_OK(edge_sorter.AddBatch(
        std::span<const uint64_t>(block.data(), fill)));
    stats.lines += parsed.lines;
    stats.comment_lines += parsed.comment_lines;
    stats.blank_lines += parsed.blank_lines;
    stats.edges_in += parsed.edges_in;
    stats.self_loops_dropped += parsed.self_loops;
    if (parsed.edges_in > 0 || !parsed.loop_ids.empty()) any_id = true;
    max_id = std::max(max_id, parsed.max_id);
    if (parsed.has_header && !has_header) {
      has_header = true;
      header_nodes = parsed.header_nodes;
    }
    parsed.Clear();
    return Status::OK();
  };

  for (;;) {
    auto chunk_or = reader->Next();
    if (!chunk_or.ok()) return chunk_or.status();
    const std::span<const char> chunk = chunk_or.ValueOrDie();
    if (chunk.empty()) break;
    // Split the chunk at its last newline: everything before it parses
    // now (prefixed by the carried partial line), the tail carries over.
    const char* begin = chunk.data();
    const char* end = begin + chunk.size();
    const char* last_nl = nullptr;
    for (const char* p = end; p > begin;) {
      --p;
      if (*p == '\n') {
        last_nl = p;
        break;
      }
    }
    if (last_nl == nullptr) {
      carry.append(begin, end);
      continue;
    }
    if (!carry.empty()) {
      // Complete the carried line and parse it on its own.
      const char* first_nl =
          static_cast<const char*>(std::memchr(begin, '\n', chunk.size()));
      carry.append(begin, first_nl + 1);
      ParseEdgeTextChunk(carry.data(), carry.data() + carry.size(),
                         &parsed);
      TRILIST_RETURN_NOT_OK(consume_parsed());
      carry.clear();
      begin = first_nl + 1;
    }
    if (begin <= last_nl) {
      ParseEdgeTextChunk(begin, last_nl + 1, &parsed);
      TRILIST_RETURN_NOT_OK(consume_parsed());
    }
    carry.assign(last_nl + 1, end);
  }
  if (!carry.empty()) {
    ParseEdgeTextChunk(carry.data(), carry.data() + carry.size(),
                       &parsed);
    TRILIST_RETURN_NOT_OK(consume_parsed());
    carry.clear();
  }
  stats.max_input_id = max_id;
  report.direct_io = reader->stats().direct_io;
  reader.reset();  // parsing is done; return the ring to the budget
  report.parse_seconds = SecondsSince(t_start);

  uint64_t n = any_id ? max_id + 1 : 0;
  if (has_header) n = std::max(n, header_nodes);
  if (n >= std::numeric_limits<NodeId>::max()) {
    return Status::OutOfRange("graph too large for 32-bit node IDs: " +
                              std::to_string(n) + " nodes");
  }

  // ---- Stage 2: merge → degrees + CSR temp ------------------------
  const auto t_merge = steady_clock::now();
  std::vector<uint32_t> degrees(n, 0);  // node-indexed, budget-exempt
  TempStream csr;
  TRILIST_RETURN_NOT_OK(csr.Create(options.tmpdir));
  std::vector<NodeId> dst_batch;
  dst_batch.reserve(64 << 10);
  TRILIST_RETURN_NOT_OK(edge_sorter.Drain(
      [&](std::span<const uint64_t> records) -> Status {
        dst_batch.clear();
        for (const uint64_t r : records) {
          degrees[static_cast<size_t>(r >> 32)]++;
          dst_batch.push_back(static_cast<NodeId>(r));
        }
        return csr.Append(dst_batch.data(),
                          dst_batch.size() * sizeof(NodeId));
      }));
  const int64_t merged = edge_sorter.stats().merged_records;
  const uint64_t m = static_cast<uint64_t>(merged) / 2;
  stats.duplicates_dropped = static_cast<size_t>(
      (edge_sorter.stats().records_in - merged) / 2);
  stats.num_nodes = static_cast<size_t>(n);
  stats.num_edges = static_cast<size_t>(m);
  report.spill_runs = edge_sorter.stats().runs;
  report.spill_bytes = edge_sorter.stats().spilled_bytes;
  report.csr_temp_bytes = static_cast<int64_t>(csr.size());
  report.merge_seconds = SecondsSince(t_merge);

  // ---- Stage 3: streamed .tlg write -------------------------------
  const auto t_write = steady_clock::now();
  std::vector<TlgStreamSectionPlan> plan;
  plan.push_back({tlg::kSecCsrOffsets, 0, (n + 1) * sizeof(uint64_t)});
  plan.push_back({tlg::kSecCsrNeighbors, 0, 2 * m * sizeof(NodeId)});
  if (options.write_degrees) {
    plan.push_back({tlg::kSecDegrees, 0, n * sizeof(int64_t)});
  }
  for (size_t i = 0; i < options.orientations.size(); ++i) {
    plan.push_back({tlg::kSecOrientation, static_cast<uint32_t>(i),
                    tlg::OrientationSectionLength(n, m)});
  }
  TlgStreamWriterOptions wopts;
  wopts.debug_fail_after_bytes = options.debug_fail_after_bytes;
  auto writer_or =
      TlgStreamWriter::Create(output_path, n, m, std::move(plan), wopts);
  if (!writer_or.ok()) return writer_or.status();
  TlgStreamWriter writer = std::move(writer_or).ValueOrDie();

  // csr_offsets: prefix sums of the degree counts.
  {
    std::vector<uint64_t> offsets(n + 1, 0);
    for (uint64_t v = 0; v < n; ++v) {
      offsets[v + 1] = offsets[v] + degrees[v];
    }
    TRILIST_RETURN_NOT_OK(AppendU64Span(&writer, offsets));
  }
  // csr_neighbors: the CSR temp verbatim.
  const size_t replay_chunk = static_cast<size_t>(
      std::clamp<uint64_t>(budget / 8, 1u << 16, 8u << 20));
  TRILIST_RETURN_NOT_OK(
      csr.Replay(replay_chunk, [&](std::span<const char> bytes) {
        return writer.Append(bytes.data(), bytes.size());
      }));
  // degrees: widened to the i64 the section stores.
  if (options.write_degrees) {
    std::vector<int64_t> batch;
    batch.reserve(64 << 10);
    for (uint64_t v = 0; v < n; ++v) {
      batch.push_back(static_cast<int64_t>(degrees[v]));
      if (batch.size() == batch.capacity()) {
        TRILIST_RETURN_NOT_OK(
            writer.Append(batch.data(), batch.size() * sizeof(int64_t)));
        batch.clear();
      }
    }
    if (!batch.empty()) {
      TRILIST_RETURN_NOT_OK(
          writer.Append(batch.data(), batch.size() * sizeof(int64_t)));
    }
  }
  report.write_seconds = SecondsSince(t_write);

  // ---- Stage 4: orientations --------------------------------------
  const auto t_orient = steady_clock::now();
  for (const OrientSpec& spec : options.orientations) {
    auto labels_or = LabelsForSpec(degrees, spec);
    if (!labels_or.ok()) return labels_or.status();
    const std::vector<NodeId> labels = std::move(labels_or).ValueOrDie();

    // Split the labeled arcs into the two directed sorts. Each arc
    // (src, dst) belongs to exactly one row family of labels[src]: an
    // out-arc when the neighbor's label is smaller, an in-arc
    // otherwise — the same test FromLabels applies.
    // Both sorters are live while the arcs replay, so each gets an
    // eighth of the budget for its run buffer and scratch (a sixteenth
    // for merge): together they stay within the half the edge sorter
    // used alone.
    ExternalU64Sorter out_sorter(options.tmpdir, budget / 8, budget / 16);
    ExternalU64Sorter in_sorter(options.tmpdir, budget / 8, budget / 16);
    std::vector<uint32_t> out_count(n, 0);
    TRILIST_RETURN_NOT_OK(ReplayArcs(
        csr, degrees, replay_chunk,
        [&](NodeId src, NodeId dst) -> Status {
          const uint64_t ls = labels[src];
          const uint64_t ld = labels[dst];
          if (ld < ls) {
            ++out_count[ls];
            return out_sorter.Add(ls << 32 | ld);
          }
          return in_sorter.Add(ls << 32 | ld);
        }));

    const tlg::OrientHeader oh{
        tlg::PermKindToCode(spec.kind), 0,
        spec.kind == PermutationKind::kUniform ? spec.seed : 0, m};
    TRILIST_RETURN_NOT_OK(writer.Append(&oh, sizeof(oh)));
    {
      std::vector<NodeId> original_of(n);
      for (uint64_t v = 0; v < n; ++v) {
        original_of[labels[v]] = static_cast<NodeId>(v);
      }
      // Out-offsets from the counts; in-counts follow for free because
      // out + in per label equals the degree of its original node.
      std::vector<uint64_t> offsets(n + 1, 0);
      for (uint64_t l = 0; l < n; ++l) {
        offsets[l + 1] = offsets[l] + out_count[l];
      }
      TRILIST_RETURN_NOT_OK(AppendU64Span(&writer, offsets));
      for (uint64_t l = 0; l < n; ++l) {
        const uint32_t in_count =
            degrees[original_of[l]] - out_count[l];
        offsets[l + 1] = offsets[l] + in_count;
      }
      TRILIST_RETURN_NOT_OK(AppendU64Span(&writer, offsets));
      // Out-neighbors then in-neighbors: each merged stream in
      // (label, neighbor) order is the concatenated sorted rows.
      const auto emit_dsts =
          [&](std::span<const uint64_t> records) -> Status {
        dst_batch.clear();
        for (const uint64_t r : records) {
          dst_batch.push_back(static_cast<NodeId>(r));
        }
        return writer.Append(dst_batch.data(),
                             dst_batch.size() * sizeof(NodeId));
      };
      TRILIST_RETURN_NOT_OK(out_sorter.Drain(emit_dsts));
      TRILIST_RETURN_NOT_OK(in_sorter.Drain(emit_dsts));
      TRILIST_RETURN_NOT_OK(writer.Append(
          original_of.data(), original_of.size() * sizeof(NodeId)));
    }
    report.spill_runs +=
        out_sorter.stats().runs + in_sorter.stats().runs;
    report.spill_bytes += out_sorter.stats().spilled_bytes +
                          in_sorter.stats().spilled_bytes;
  }
  report.orient_seconds = SecondsSince(t_orient);

  // ---- Stage 5: directory, header and fsync ------------------------
  const auto t_sync = steady_clock::now();
  TRILIST_RETURN_NOT_OK(writer.Finish());
  report.sync_seconds = SecondsSince(t_sync);

  struct stat out_st;
  if (::stat(output_path.c_str(), &out_st) == 0) {
    report.output_bytes = static_cast<int64_t>(out_st.st_size);
  }
  report.ingest = stats;
#if defined(__GLIBC__)
  // Every edge-sized buffer is freed by now, but glibc keeps freed heap
  // pages resident (the buffers come from the heap once its dynamic
  // mmap threshold has risen past them), and the next conversion in
  // this process lays its buffers out partly beside them: RSS would
  // creep past the budget job by job. Hand the pages back.
  malloc_trim(0);
#endif
  report.total_seconds = SecondsSince(t_start);
  return report;
}

}  // namespace trilist::ooc
