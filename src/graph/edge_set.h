#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/graph/oriented_graph.h"

/// \file edge_set.h
/// Arc-existence index over an oriented graph, laid out row by row.
///
/// Vertex iterators (T1..T6) generate candidate arcs and "check them
/// against E(theta_n) using a hash table" (Section 2.2). Every check asks
/// about one source row: T1's inner loop holds y fixed and probes N+(y),
/// T2's holds z fixed and probes N+(z). So the index keeps each out-row's
/// lookup structure on its own, contiguous and in label order, instead of
/// one whole-graph table keyed by packed (from, to), where nearly every
/// probe was a cache miss in a table of 16-32 B per arc.
///
/// Layout: one NodeId slot array plus n+1 row starts (8 B per node).
///   - A row of kScanMax (16) or fewer arcs stores the row itself
///     (4 B per arc) and a probe scans it.
///   - A longer row stores an open-addressed table: capacity the smallest
///     power of two >= 2d (so at least 64), linear probing from a
///     multiplicative hash, ~0u as the empty sentinel (node IDs are below
///     2^32 - 1). That is 8-16 B per arc at <= 50% load.
/// A row is therefore hashed exactly when its slot span is longer than
/// kScanMax, and no per-row flag is stored. Build is one O(m) pass.
///
/// A branch-free binary search over the sorted out-row was measured as
/// the alternative and made T1 2x slower on hub rows: each of its
/// log2(d) steps is a dependent load, where a table at <= 50% load
/// resolves most probes in the first slot.
///
/// T1 and T2 take the probed row once per fixed source (RowOf) and probe
/// it in their inner loop; the other iterators call Contains(from, to).
/// A source past the last node gets an empty row, so the index answers
/// false for any (from, to), as the whole-graph table did.
///
/// The index copies what it needs and holds no reference to the graph,
/// so it may be built from a temporary.

namespace trilist {

/// \brief Row-local directed-arc membership index.
class DirectedEdgeSet {
 public:
  /// Rows up to this length are scanned; longer rows are hashed.
  static constexpr size_t kScanMax = 16;
  /// Empty-slot sentinel of a hashed row.
  static constexpr NodeId kEmpty = ~NodeId{0};

  /// Indexes every arc of `g` (O(m) build).
  explicit DirectedEdgeSet(const OrientedGraph& g);

  /// One source row, for loops that hold `from` fixed across probes (T1
  /// holds y, T2 holds z): the row lookup and its bounds check are paid
  /// once per row instead of once per probe.
  class Row {
   public:
    /// True iff the arc from -> to exists.
    bool Contains(NodeId to) const {
      if (span_ <= kScanMax) {
        for (size_t i = 0; i < span_; ++i) {
          if (slots_[i] == to) return true;
        }
        return false;
      }
      const size_t mask = span_ - 1;
      for (size_t i = Home(to, span_);; i = (i + 1) & mask) {
        const NodeId slot = slots_[i];
        if (slot == kEmpty) return false;
        if (slot == to) return true;
      }
    }

   private:
    friend class DirectedEdgeSet;
    Row(const NodeId* slots, size_t span) : slots_(slots), span_(span) {}
    const NodeId* slots_;
    size_t span_;
  };

  /// The row of `from`. Any `from` is accepted: one outside the graph
  /// gets an empty row, so every probe answers false. A paged .tlg open
  /// checks no neighbor IDs, so a forged one may reach here as `from`.
  Row RowOf(NodeId from) const {
    if (from >= num_nodes_) return Row(nullptr, 0);
    const size_t begin = starts_[from];
    return Row(slots_.data() + begin, starts_[from + 1] - begin);
  }

  /// True iff the arc from -> to exists; any `from`, as in RowOf.
  bool Contains(NodeId from, NodeId to) const {
    return RowOf(from).Contains(to);
  }

  /// Number of arcs indexed.
  size_t size() const { return size_; }

 private:
  /// Home slot of `to` in a table of `capacity` (a power of two > 16):
  /// the top log2(capacity) bits of a Fibonacci-hash product.
  static size_t Home(NodeId to, size_t capacity) {
    return static_cast<size_t>(
        (uint64_t{to} * 0x9E3779B97F4A7C15ull) >>
        (64 - std::countr_zero(capacity)));
  }

  size_t num_nodes_ = 0;
  std::vector<size_t> starts_;  // n + 1 slot-array offsets
  std::vector<NodeId> slots_;   // rows, scanned or hashed
  size_t size_ = 0;
};

}  // namespace trilist
