#include "src/xm/partitioned.h"

#include <algorithm>

#include "src/algo/intersect.h"
#include "src/algo/sei_common.h"
#include "src/util/status.h"

namespace trilist {

namespace {

constexpr int64_t kBytesPerId = static_cast<int64_t>(sizeof(NodeId));

int64_t OutListBytes(const OrientedGraph& g, NodeId lo, NodeId hi) {
  int64_t bytes = 0;
  for (NodeId v = lo; v < hi; ++v) {
    bytes += g.OutDegree(v) * kBytesPerId;
  }
  return bytes;
}

}  // namespace

Partitioning::Partitioning(const OrientedGraph& g, size_t max_partitions) {
  TRILIST_DCHECK(max_partitions >= 1);
  const size_t n = g.num_nodes();
  bounds_.push_back(0);
  if (n == 0) {
    bounds_.push_back(0);
    return;
  }
  const int64_t total = OutListBytes(g, 0, static_cast<NodeId>(n));
  const int64_t target = std::max<int64_t>(
      1, (total + static_cast<int64_t>(max_partitions) - 1) /
             static_cast<int64_t>(max_partitions));
  int64_t acc = 0;
  for (size_t v = 0; v < n; ++v) {
    acc += g.OutDegree(static_cast<NodeId>(v)) * kBytesPerId;
    const bool last_node = v + 1 == n;
    if (!last_node && acc >= target &&
        bounds_.size() < max_partitions) {
      bounds_.push_back(static_cast<NodeId>(v + 1));
      acc = 0;
    }
  }
  bounds_.push_back(static_cast<NodeId>(n));
}

Partitioning Partitioning::ForMemoryBudget(const OrientedGraph& g,
                                           int64_t budget_bytes) {
  TRILIST_DCHECK(budget_bytes > 0);
  const int64_t total =
      OutListBytes(g, 0, static_cast<NodeId>(g.num_nodes()));
  const auto k = static_cast<size_t>(
      std::max<int64_t>(1, (total + budget_bytes - 1) / budget_bytes));
  return Partitioning(g, k);
}

OpCounts RunPartitionedE1(const OrientedGraph& g, const Partitioning& parts,
                          TriangleSink* sink, IoStats* io) {
  OpCounts ops;
  IoStats ledger;
  const size_t n = g.num_nodes();
  for (size_t p = 0; p < parts.num_partitions(); ++p) {
    const NodeId lo = parts.lower(p);
    const NodeId hi = parts.upper(p);
    ++ledger.passes;
    ledger.bytes_loaded += OutListBytes(g, lo, hi);
    // Stream every out-list once; complete wedges with apex z in [lo, hi).
    for (size_t yi = 0; yi < n; ++yi) {
      const auto y = static_cast<NodeId>(yi);
      const auto remote = g.OutNeighbors(y);
      ledger.bytes_streamed +=
          static_cast<int64_t>(remote.size()) * kBytesPerId;
      for (const NodeId z : sei::RangeWithin(g.InNeighbors(y), lo, hi)) {
        const auto local = sei::PrefixBelow(g.OutNeighbors(z), y);
        ops.local_scans += static_cast<int64_t>(local.size());
        ops.remote_scans += static_cast<int64_t>(remote.size());
        ops.merge_comparisons += IntersectMergeT(local, remote, [&](NodeId x) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        });
      }
    }
  }
  if (io != nullptr) *io = ledger;
  return ops;
}

OpCounts RunPartitionedE2(const OrientedGraph& g, const Partitioning& parts,
                          TriangleSink* sink, IoStats* io) {
  OpCounts ops;
  IoStats ledger;
  const size_t n = g.num_nodes();
  for (size_t p = 0; p < parts.num_partitions(); ++p) {
    const NodeId lo = parts.lower(p);
    const NodeId hi = parts.upper(p);
    ++ledger.passes;
    ledger.bytes_loaded += OutListBytes(g, lo, hi);
    for (size_t zi = 0; zi < n; ++zi) {
      const auto z = static_cast<NodeId>(zi);
      const auto streamed = g.OutNeighbors(z);
      ledger.bytes_streamed +=
          static_cast<int64_t>(streamed.size()) * kBytesPerId;
      for (const NodeId y : sei::RangeWithin(streamed, lo, hi)) {
        const auto local = g.OutNeighbors(y);  // resident
        const auto remote = sei::PrefixBelow(streamed, y);
        ops.local_scans += static_cast<int64_t>(local.size());
        ops.remote_scans += static_cast<int64_t>(remote.size());
        ops.merge_comparisons += IntersectMergeT(local, remote, [&](NodeId x) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        });
      }
    }
  }
  if (io != nullptr) *io = ledger;
  return ops;
}

}  // namespace trilist
