#include "src/graph/edge_set.h"

#include <algorithm>

namespace trilist {

namespace {

/// Slot span of an out-row of `degree` arcs.
size_t SpanOf(size_t degree) {
  if (degree <= DirectedEdgeSet::kScanMax) return degree;
  return std::bit_ceil(2 * degree);
}

}  // namespace

DirectedEdgeSet::DirectedEdgeSet(const OrientedGraph& g)
    : num_nodes_(g.num_nodes()), size_(g.num_arcs()) {
  const size_t n = num_nodes_;
  starts_.resize(n + 1);
  starts_[0] = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto degree = g.OutDegree(static_cast<NodeId>(i));
    starts_[i + 1] = starts_[i] + SpanOf(static_cast<size_t>(degree));
  }
  slots_.resize(starts_[n]);
  for (size_t i = 0; i < n; ++i) {
    const auto out = g.OutNeighbors(static_cast<NodeId>(i));
    NodeId* row = slots_.data() + starts_[i];
    const size_t span = starts_[i + 1] - starts_[i];
    if (span <= kScanMax) {
      std::copy(out.begin(), out.end(), row);
      continue;
    }
    std::fill(row, row + span, kEmpty);
    const size_t mask = span - 1;
    for (const NodeId to : out) {
      size_t s = Home(to, span);
      while (row[s] != kEmpty) s = (s + 1) & mask;
      row[s] = to;
    }
  }
}

}  // namespace trilist
