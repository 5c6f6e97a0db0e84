#pragma once

#include <cstdint>
#include <string>

#include "src/algo/vertex_iterator.h"  // OpCounts
#include "src/order/pipeline.h"        // OrientSpec
#include "src/util/status.h"
#include "src/xm/partitioned.h"        // IoStats

/// \file paged_count.h
/// E1/E2 triangle counting over a `.tlg` file that never fully enters
/// memory: the container is opened in paged mode (demand-paged mmap, no
/// readahead — see TlgLoadOptions::paged), the label space is split into
/// partitions that fit the budget, and src/xm's partitioned pass runs
/// with MADV_DONTNEED eviction chasing the stream cursor, so pages
/// behind it are handed back to the kernel instead of accumulating in
/// RSS.
///
/// This is the priced realization of the src/xm cost model: the IoStats
/// ledger those simulated executors report (bytes loaded per partition,
/// bytes streamed per pass) here corresponds to actual page traffic —
/// the resident partition's out-lists stay mapped for the whole pass
/// while every streamed list is touched once and then evicted. Triangle
/// counts and CPU OpCounts are identical to the in-memory RunE1/RunE2 by
/// construction (the pass is the same; only page residency differs).

namespace trilist::ooc {

/// Knobs for OocCountTlg.
struct OocCountOptions {
  /// Hard budget for edge-sized resident data. Half funds the resident
  /// partition (Partitioning::ForMemoryBudget), an eighth the streamed
  /// window between evictions; the rest is headroom. Floor 1 MiB.
  int64_t mem_budget_bytes = 256ll << 20;
  /// Which embedded orientation to run on; the file must cache it
  /// (`convert` embeds theta_D by default).
  OrientSpec spec;
  /// E2-style passes instead of E1-style.
  bool use_e2 = false;
};

/// What a paged counting run did.
struct OocCountResult {
  OpCounts ops;            ///< identical to the in-memory executor's
  IoStats io;              ///< the realized I/O ledger
  int64_t partitions = 0;  ///< passes over the streamed lists
  int64_t evictions = 0;   ///< MADV_DONTNEED calls issued
  bool mmap_backed = false;  ///< eviction only works on a real mapping
};

/// Counts triangles in `path` (a .tlg with the requested orientation
/// embedded) under the memory budget. Fails with InvalidArgument when
/// the file lacks the orientation — out-of-core re-orientation belongs
/// to `convert`, not to the counting path.
Result<OocCountResult> OocCountTlg(const std::string& path,
                                   const OocCountOptions& options);

}  // namespace trilist::ooc
