#pragma once

#include <algorithm>
#include <span>

#include "src/graph/graph.h"

/// \file sei_common.h
/// Sorted-span helpers of the scanning edge iterators: the label-window
/// restrictions of an adjacency row that every SEI intersection operates
/// on. They are the one copy used by the shared kernel bodies
/// (kernel_body.h, and hence both the serial and the parallel runs), the
/// other serial kernels, and the partitioned and paged executors
/// (src/xm, src/ooc). Together with IntersectMergeT (intersect.h) they
/// are why every executor reports bit-identical scan and
/// merge_comparisons counters: all of them execute the same loops.

namespace trilist {
namespace sei {

/// Elements of `list` strictly below `bound` (a sorted prefix).
inline std::span<const NodeId> PrefixBelow(std::span<const NodeId> list,
                                           NodeId bound) {
  const auto it = std::lower_bound(list.begin(), list.end(), bound);
  return list.first(static_cast<size_t>(it - list.begin()));
}

/// Elements of `list` strictly above `bound` (a sorted suffix).
inline std::span<const NodeId> SuffixAbove(std::span<const NodeId> list,
                                           NodeId bound) {
  const auto it = std::upper_bound(list.begin(), list.end(), bound);
  return list.subspan(static_cast<size_t>(it - list.begin()));
}

/// Elements of `list` with values in [lo, hi) (a sorted subrange).
inline std::span<const NodeId> RangeWithin(std::span<const NodeId> list,
                                           NodeId lo, NodeId hi) {
  const auto first = std::lower_bound(list.begin(), list.end(), lo);
  const auto last = std::lower_bound(first, list.end(), hi);
  return list.subspan(static_cast<size_t>(first - list.begin()),
                      static_cast<size_t>(last - first));
}

}  // namespace sei
}  // namespace trilist
