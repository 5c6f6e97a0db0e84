#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "src/graph/graph.h"

/// \file intersect.h
/// Sorted-set intersection kernels — the elementary operation of scanning
/// edge iterators, and the axis along which SEI beats hash-based families
/// on modern hardware (Table 3). Four strategies with different
/// asymmetry sweet spots:
///
///  * Merge: classic two-pointer scan, O(|A| + |B|); best when the lists
///    have comparable lengths (the paper's best case for intersection).
///  * Gallop: binary-search-assisted, O(|A| log(|B|/|A|)); best when one
///    list is much shorter (hub vs leaf adjacency).
///  * Auto: picks between the two from the length ratio.
///  * Simd: block merge vectorized with AVX2/AVX-512 when the CPU has
///    them (see src/algo/simd/intersect_simd.h), dispatching at runtime;
///    emits the same elements in the same order as Merge and reports the
///    scalar-equivalent comparison count, so it is a drop-in for cost
///    experiments.
///
/// The kernels are templates taking any callable `emit(NodeId)`, so call
/// sites inline the emission (devirtualized hot path), and return the
/// number of elementary comparisons performed. IntersectMergeT is the one
/// two-pointer merge loop of the codebase: the SEI kernels, the
/// partitioned and paged executors and the SIMD kernels' duplicate-input
/// fallback all call it (the SIMD front end, simd::IntersectSimdT, lives
/// in simd/intersect_simd.h).
///
/// IntersectMergeT has two loop shapes for one state machine. On spans
/// within 4x of each other's length the next step is a coin flip, so it
/// steps branch-free: `i += x <= y; j += y <= x`, emitting on x == y, and
/// counts steps as i + j - matches. On more skewed spans it keeps the
/// branchy three-way loop, which predicts well on long one-sided runs
/// (a fully branch-free loop lost ~7% on dense E1). For any two spans —
/// unsorted or duplicate-bearing ones included — both shapes take the
/// same steps, so they emit the same elements in the same order and
/// report the same comparison count; tests/intersect_test.cpp checks
/// this differentially.

namespace trilist {

namespace intersect_internal {

/// True when neither span is more than 4x longer than the other: the
/// span pairs on which IntersectMergeT steps branch-free.
constexpr bool MergeIsBalanced(size_t a_size, size_t b_size) {
  return a_size <= 4 * b_size && b_size <= 4 * a_size;
}

}  // namespace intersect_internal

/// Two-pointer merge intersection of sorted ranges.
/// \return comparisons performed (one per loop iteration).
template <typename Emit>
int64_t IntersectMergeT(std::span<const NodeId> a, std::span<const NodeId> b,
                        Emit&& emit) {
  size_t i = 0;
  size_t j = 0;
  if (intersect_internal::MergeIsBalanced(a.size(), b.size())) {
    // Each step advances i, j or both, so steps = i + j - matches.
    size_t matches = 0;
    while (i < a.size() && j < b.size()) {
      const NodeId x = a[i];
      const NodeId y = b[j];
      if (x == y) {
        emit(x);
        ++matches;
      }
      i += x <= y;
      j += y <= x;
    }
    return static_cast<int64_t>(i + j - matches);
  }
  int64_t comparisons = 0;
  while (i < a.size() && j < b.size()) {
    ++comparisons;
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      emit(a[i]);
      ++i;
      ++j;
    }
  }
  return comparisons;
}

namespace intersect_internal {

/// Gallops for `key` in list[lo..): returns the first index with
/// list[idx] >= key; adds probe count to *comparisons.
int64_t GallopLowerBound(std::span<const NodeId> list, size_t lo, NodeId key,
                         size_t* found);

}  // namespace intersect_internal

/// Galloping intersection: for each element of the shorter list, gallop
/// (doubling probe + binary search) in the longer one.
template <typename Emit>
int64_t IntersectGallopT(std::span<const NodeId> a,
                         std::span<const NodeId> b, Emit&& emit) {
  // Keep `a` as the shorter list.
  if (a.size() > b.size()) std::swap(a, b);
  int64_t comparisons = 0;
  size_t cursor = 0;
  for (const NodeId key : a) {
    comparisons +=
        intersect_internal::GallopLowerBound(b, cursor, key, &cursor);
    if (cursor >= b.size()) break;
    ++comparisons;
    if (b[cursor] == key) {
      emit(key);
      ++cursor;
    }
  }
  return comparisons;
}

/// Ratio-adaptive dispatch: gallop when one side is > 32x longer.
template <typename Emit>
int64_t IntersectAutoT(std::span<const NodeId> a, std::span<const NodeId> b,
                       Emit&& emit) {
  // Empty input: nothing to intersect, zero comparisons, and no kernel
  // dispatch (the ratio below would divide by zero).
  if (a.empty() || b.empty()) return 0;
  const size_t small = a.size() < b.size() ? a.size() : b.size();
  const size_t large = a.size() < b.size() ? b.size() : a.size();
  // Gallop strictly above the 32x ratio. Compare multiplicatively:
  // `large / small > 32` truncates, wrongly sending e.g. 65-vs-2 (32.5x)
  // to the merge kernel.
  if (large > 32 * small) {
    return IntersectGallopT(a, b, static_cast<Emit&&>(emit));
  }
  return IntersectMergeT(a, b, static_cast<Emit&&>(emit));
}

}  // namespace trilist
