#include "src/ooc/paged_count.h"

#include <algorithm>
#include <span>

#include "src/algo/kernel_body.h"  // CountEmit
#include "src/graph/binfmt.h"
#include "src/xm/partition_pass.h"

namespace trilist::ooc {

namespace {

/// The pager of a paged pass: the resident partition's out-lists stay
/// mapped for the whole pass, and streamed rows inside the mapped file
/// are dropped once the cursor has moved `window_bytes` past them.
class EvictingPager {
 public:
  EvictingPager(const OrientedGraph& g, const MmapFile* file,
                int64_t window_bytes, int64_t* evictions)
      : g_(g),
        file_(file),
        base_(reinterpret_cast<const char*>(file->bytes().data())),
        window_bytes_(window_bytes),
        evictions_(evictions) {}

  void BeginPass(NodeId lo, NodeId hi) {
    keep_begin_ = RowStart(/*out=*/true, lo);
    keep_end_ = RowStart(/*out=*/true, hi);
    mark_ = 0;
    pending_ = 0;
  }

  void AfterRow(NodeId v) {
    pending_ += g_.TotalDegree(v) * static_cast<int64_t>(sizeof(NodeId));
    if (pending_ < window_bytes_) return;
    // Drop the rows streamed since the last drop; row v goes with the
    // next one.
    DropRows(mark_, v);
    mark_ = v;
    pending_ = 0;
  }

  void EndPass() {
    // Release the rest of the streamed rows (the next pass restarts from
    // label 0), then the resident partition.
    DropRows(mark_, g_.num_nodes());
    EvictBytes(keep_begin_, keep_end_);
  }

 private:
  /// First byte of row v of the out- or in-adjacency.
  const char* RowStart(bool out, size_t v) const {
    const NodeId* ids = out ? g_.RawOutNeighbors().data()
                            : g_.RawInNeighbors().data();
    return reinterpret_cast<const char*>(
        ids + (out ? g_.RawOutOffsets() : g_.RawInOffsets())[v]);
  }

  /// Evicts the out- and in-rows of labels [from, to), sparing the
  /// resident partition.
  void DropRows(size_t from, size_t to) {
    for (const bool out : {true, false}) {
      DropSpared(RowStart(out, from), RowStart(out, to));
    }
  }

  void DropSpared(const char* lo, const char* hi) {
    if (keep_begin_ < keep_end_ && lo < keep_end_ && keep_begin_ < hi) {
      EvictBytes(lo, std::min(hi, keep_begin_));
      EvictBytes(std::max(lo, keep_end_), hi);
      return;
    }
    EvictBytes(lo, hi);
  }

  void EvictBytes(const char* lo, const char* hi) {
    if (lo >= hi) return;
    file_->Evict(static_cast<size_t>(lo - base_),
                 static_cast<size_t>(hi - lo));
    ++*evictions_;
  }

  const OrientedGraph& g_;
  const MmapFile* file_;
  const char* base_;
  const int64_t window_bytes_;
  int64_t* evictions_;
  const char* keep_begin_ = nullptr;  // the resident partition's bytes
  const char* keep_end_ = nullptr;
  size_t mark_ = 0;      // first row not yet dropped
  int64_t pending_ = 0;  // bytes streamed since the last drop
};

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
  OocCountResult result;  // count only: ops.triangles is the answer
  result.mmap_backed = file.backing()->is_mapped();
  EvictingPager pager(*og, file.backing(), window, &result.evictions);
  result.ops = options.use_e2
                   ? xm::RunPartitionPasses<Method::kE2>(
                         *og, parts, kernel::CountEmit{}, pager, &result.io)
                   : xm::RunPartitionPasses<Method::kE1>(
                         *og, parts, kernel::CountEmit{}, pager, &result.io);
  result.partitions = result.io.passes;
  return result;
}

}  // namespace trilist::ooc
