#include "src/ooc/paged_count.h"

#include <algorithm>
#include <span>

#include "src/algo/intersect.h"
#include "src/algo/sei_common.h"
#include "src/graph/binfmt.h"

namespace trilist::ooc {

namespace {

constexpr int64_t kBytesPerId = static_cast<int64_t>(sizeof(NodeId));

int64_t OutListBytes(const OrientedGraph& g, NodeId lo, NodeId hi) {
  int64_t bytes = 0;
  for (NodeId v = lo; v < hi; ++v) {
    bytes += g.OutDegree(v) * kBytesPerId;
  }
  return bytes;
}

/// Evicts page-cache residency of a neighbor-array slice, excluding the
/// overlap with a protected (resident-partition) slice of the same
/// array. All pointers live inside the mapped file.
class Evictor {
 public:
  Evictor(const MmapFile* file, int64_t* evictions)
      : file_(file),
        base_(reinterpret_cast<const char*>(file->bytes().data())),
        evictions_(evictions) {}

  /// Protects [keep_begin, keep_end): Evict calls never drop it.
  void Protect(const NodeId* keep_begin, const NodeId* keep_end) {
    keep_begin_ = reinterpret_cast<const char*>(keep_begin);
    keep_end_ = reinterpret_cast<const char*>(keep_end);
  }

  void Evict(const NodeId* begin, const NodeId* end) {
    const char* lo = reinterpret_cast<const char*>(begin);
    const char* hi = reinterpret_cast<const char*>(end);
    if (keep_begin_ < keep_end_ && lo < keep_end_ && keep_begin_ < hi) {
      // Split around the protected range.
      EvictBytes(lo, std::min(hi, keep_begin_));
      EvictBytes(std::max(lo, keep_end_), hi);
      return;
    }
    EvictBytes(lo, hi);
  }

 private:
  void EvictBytes(const char* lo, const char* hi) {
    if (lo >= hi) return;
    file_->Evict(static_cast<size_t>(lo - base_),
                 static_cast<size_t>(hi - lo));
    ++*evictions_;
  }

  const MmapFile* file_;
  const char* base_;
  const char* keep_begin_ = nullptr;
  const char* keep_end_ = nullptr;
  int64_t* evictions_;
};

/// One E1- or E2-style partitioned run with eviction chasing the stream
/// cursor. The loop body mirrors src/xm/partitioned.cpp statement for
/// statement, so OpCounts and the IoStats ledger come out identical to
/// the simulated executors — what changes is that streamed pages are
/// dropped once the cursor has moved `window_bytes` past them. Only the
/// count is wanted, so the run keeps no triangles: ops.triangles is it.
OocCountResult RunPaged(const OrientedGraph& g, const MmapFile* file,
                        const Partitioning& parts, int64_t window_bytes,
                        bool use_e2) {
  OocCountResult result;
  result.mmap_backed = file->is_mapped();
  const size_t n = g.num_nodes();
  const std::span<const NodeId> all_out = g.RawOutNeighbors();
  const std::span<const NodeId> all_in = g.RawInNeighbors();

  for (size_t p = 0; p < parts.num_partitions(); ++p) {
    const NodeId lo = parts.lower(p);
    const NodeId hi = parts.upper(p);
    ++result.io.passes;
    result.io.bytes_loaded += OutListBytes(g, lo, hi);
    ++result.partitions;

    Evictor evictor(file, &result.evictions);
    // The resident partition: out-lists of [lo, hi) stay mapped for the
    // whole pass (E1 probes them as wedge apexes / E2 as local lists).
    const NodeId* keep_begin = all_out.data() + g.RawOutOffsets()[lo];
    const NodeId* keep_end = all_out.data() + g.RawOutOffsets()[hi];
    evictor.Protect(keep_begin, keep_end);

    // Stream cursor bookkeeping: rows [evict_mark, cursor) have been
    // streamed but not yet dropped.
    size_t out_evict_mark = 0;  // row start index into all_out
    size_t in_evict_mark = 0;   // row start index into all_in
    int64_t pending = 0;        // bytes streamed since the last drop

    for (size_t yi = 0; yi < n; ++yi) {
      const auto y = static_cast<NodeId>(yi);
      const auto streamed = g.OutNeighbors(y);
      result.io.bytes_streamed +=
          static_cast<int64_t>(streamed.size()) * kBytesPerId;
      if (!use_e2) {
        for (const NodeId z : sei::RangeWithin(g.InNeighbors(y), lo, hi)) {
          const auto local = sei::PrefixBelow(g.OutNeighbors(z), y);
          result.ops.local_scans += static_cast<int64_t>(local.size());
          result.ops.remote_scans +=
              static_cast<int64_t>(streamed.size());
          result.ops.merge_comparisons += IntersectMergeT(
              local, streamed, [&](NodeId) { ++result.ops.triangles; });
        }
      } else {
        for (const NodeId w : sei::RangeWithin(streamed, lo, hi)) {
          const auto local = g.OutNeighbors(w);  // resident
          const auto remote = sei::PrefixBelow(streamed, w);
          result.ops.local_scans += static_cast<int64_t>(local.size());
          result.ops.remote_scans += static_cast<int64_t>(remote.size());
          result.ops.merge_comparisons += IntersectMergeT(
              local, remote, [&](NodeId) { ++result.ops.triangles; });
        }
      }
      pending +=
          static_cast<int64_t>(streamed.size() + g.InNeighbors(y).size()) *
          kBytesPerId;
      if (pending >= window_bytes) {
        // Drop everything strictly behind the cursor; row y itself may
        // still be partially needed by the merge above, so stop at its
        // start.
        const size_t out_row = g.RawOutOffsets()[y];
        const size_t in_row = g.RawInOffsets()[y];
        evictor.Evict(all_out.data() + out_evict_mark,
                      all_out.data() + out_row);
        evictor.Evict(all_in.data() + in_evict_mark,
                      all_in.data() + in_row);
        out_evict_mark = out_row;
        in_evict_mark = in_row;
        pending = 0;
      }
    }
    // End of pass: release the rest of the streamed window (the next
    // pass restarts from label 0) and the old resident partition.
    evictor.Evict(all_out.data() + out_evict_mark,
                  all_out.data() + all_out.size());
    evictor.Evict(all_in.data() + in_evict_mark,
                  all_in.data() + all_in.size());
    evictor.Protect(nullptr, nullptr);
    evictor.Evict(keep_begin, keep_end);
  }
  return result;
}

}  // namespace

Result<OocCountResult> OocCountTlg(const std::string& path,
                                   const OocCountOptions& options) {
  TlgLoadOptions load;
  load.paged = true;
  auto file_or = TlgFile::Open(path, load);
  if (!file_or.ok()) return file_or.status();
  const TlgFile file = std::move(file_or).ValueOrDie();
  const OrientedGraph* og = file.FindOrientation(options.spec);
  if (og == nullptr) {
    return Status::InvalidArgument(
        path + " does not embed the requested orientation; re-run "
        "`trilist_cli convert` with matching --orient flags");
  }
  const int64_t budget =
      std::max<int64_t>(options.mem_budget_bytes, 1ll << 20);
  // Half the budget holds the resident partition; the streamed window
  // between evictions gets an eighth, leaving the rest as headroom for
  // the node-indexed sections (offsets, original_of) that every pass
  // touches and that cannot be evicted while the pass runs.
  const Partitioning parts =
      Partitioning::ForMemoryBudget(*og, budget / 2);
  const int64_t window = std::max<int64_t>(budget / 8, 1ll << 20);
  return RunPaged(*og, file.backing(), parts, window, options.use_e2);
}

}  // namespace trilist::ooc
