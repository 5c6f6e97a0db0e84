#include "src/xm/partitioned.h"

#include <algorithm>

#include "src/algo/kernel_body.h"
#include "src/util/status.h"
#include "src/xm/partition_pass.h"

namespace trilist {

namespace {

constexpr int64_t kBytesPerId = static_cast<int64_t>(sizeof(NodeId));

}  // namespace

Partitioning::Partitioning(const OrientedGraph& g, size_t max_partitions) {
  TRILIST_DCHECK(max_partitions >= 1);
  const size_t n = g.num_nodes();
  bounds_.push_back(0);
  if (n == 0) {
    bounds_.push_back(0);
    return;
  }
  const auto total = static_cast<int64_t>(g.num_arcs()) * kBytesPerId;
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
  const auto total = static_cast<int64_t>(g.num_arcs()) * kBytesPerId;
  const auto k = static_cast<size_t>(
      std::max<int64_t>(1, (total + budget_bytes - 1) / budget_bytes));
  return Partitioning(g, k);
}

OpCounts RunPartitionedE1(const OrientedGraph& g, const Partitioning& parts,
                          TriangleSink* sink, IoStats* io) {
  xm::NoPager pager;
  return kernel::RunToSink(sink, nullptr, [&](auto emit, auto) {
    return xm::RunPartitionPasses<Method::kE1>(g, parts, emit, pager, io);
  });
}

OpCounts RunPartitionedE2(const OrientedGraph& g, const Partitioning& parts,
                          TriangleSink* sink, IoStats* io) {
  xm::NoPager pager;
  return kernel::RunToSink(sink, nullptr, [&](auto emit, auto) {
    return xm::RunPartitionPasses<Method::kE2>(g, parts, emit, pager, io);
  });
}

}  // namespace trilist
