#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/algo/cost.h"  // Method
#include "src/algo/intersect.h"
#include "src/algo/sei_common.h"
#include "src/algo/vertex_iterator.h"  // OpCounts
#include "src/graph/oriented_graph.h"
#include "src/xm/partitioned.h"

/// \file partition_pass.h
/// The one pass body of partitioned E1/E2. RunPartitionedE1/E2 run it
/// with a sink's emitter and NoPager; the paged counter (src/ooc) runs it
/// with kernel::CountEmit and a pager that evicts streamed rows. A pass
/// streams rows in label order, not in E1Range's apex order: that is
/// what lets a pager drop every row behind the cursor (DESIGN.md §13).

namespace trilist {
namespace xm {

/// Pager hooks: BeginPass(lo, hi) and EndPass() around each pass,
/// AfterRow(v) once row v has been streamed. Simulated rows stay "on
/// disk", so NoPager does nothing.
struct NoPager {
  void BeginPass(NodeId, NodeId) {}
  void AfterRow(NodeId) {}
  void EndPass() {}
};

/// One pass per partition [lo, hi) of `parts`. E1 streams y and, for
/// each apex z in N-(y) ∩ [lo, hi), intersects N+(z) below y with N+(y).
/// E2 streams z and, for each y in N+(z) ∩ [lo, hi), intersects N+(y)
/// with N+(z) below y. Each triangle bumps OpCounts::triangles and goes
/// to emit(x, y, z). The counters equal in-memory RunE1/RunE2's; *io
/// gets the ledger.
template <Method M, typename Emit, typename Pager>
OpCounts RunPartitionPasses(const OrientedGraph& g, const Partitioning& parts,
                            Emit emit, Pager& pager, IoStats* io) {
  static_assert(M == Method::kE1 || M == Method::kE2);
  constexpr auto kBytesPerId = static_cast<int64_t>(sizeof(NodeId));
  OpCounts ops;
  IoStats ledger;
  const auto n = static_cast<NodeId>(g.num_nodes());
  auto intersect = [&](std::span<const NodeId> local,
                       std::span<const NodeId> remote, NodeId y, NodeId z) {
    ops.local_scans += static_cast<int64_t>(local.size());
    ops.remote_scans += static_cast<int64_t>(remote.size());
    ops.merge_comparisons += IntersectMergeT(local, remote, [&](NodeId x) {
      ++ops.triangles;
      emit(x, y, z);
    });
  };
  // E1's cursor: the y reaching a resident apex z arrive in ascending
  // order and are exactly N+(z), so next[z - lo] is y's index in N+(z)
  // and needs no search. Node-indexed, so no budget pays for it. A paged
  // file's rows are not validated on open; where its in- and out-rows
  // disagree, the pass searches instead of reading past the row.
  std::vector<uint32_t> next;
  for (size_t p = 0; p < parts.num_partitions(); ++p) {
    const NodeId lo = parts.lower(p);
    const NodeId hi = parts.upper(p);
    ++ledger.passes;
    for (NodeId v = lo; v < hi; ++v) {
      ledger.bytes_loaded += g.OutDegree(v) * kBytesPerId;
    }
    if constexpr (M == Method::kE1) next.assign(hi - lo, 0);
    pager.BeginPass(lo, hi);
    for (NodeId v = 0; v < n; ++v) {
      const auto streamed = g.OutNeighbors(v);
      ledger.bytes_streamed +=
          static_cast<int64_t>(streamed.size()) * kBytesPerId;
      if constexpr (M == Method::kE1) {  // v is the middle node y
        for (const NodeId z : sei::RangeWithin(g.InNeighbors(v), lo, hi)) {
          const auto out = g.OutNeighbors(z);
          size_t idx = next[z - lo];
          if (idx >= out.size() || out[idx] != v) {
            idx = sei::PrefixBelow(out, v).size();
          }
          next[z - lo] = static_cast<uint32_t>(idx + 1);
          intersect(out.first(idx), streamed, v, z);
        }
      } else {  // v is the apex z; N+(v) below y is a prefix of `streamed`
        for (size_t k = sei::PrefixBelow(streamed, lo).size();
             k < streamed.size() && streamed[k] < hi; ++k) {
          intersect(g.OutNeighbors(streamed[k]), streamed.first(k),
                    streamed[k], v);
        }
      }
      pager.AfterRow(v);
    }
    pager.EndPass();
  }
  if (io != nullptr) *io = ledger;
  return ops;
}

}  // namespace xm
}  // namespace trilist
