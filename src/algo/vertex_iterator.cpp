#include "src/algo/vertex_iterator.h"

#include "src/algo/kernel_body.h"

namespace trilist {

namespace {

template <typename Emit, typename Hook>
OpCounts RunT3Impl(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                   Emit emit, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t xi = 0; xi < n; ++xi) {
    const auto x = static_cast<NodeId>(xi);
    const auto in = g.InNeighbors(x);
    [[maybe_unused]] const int64_t before = ops.candidate_checks;
    for (size_t a = 0; a + 1 < in.size(); ++a) {
      const NodeId y = in[a];
      for (size_t b = a + 1; b < in.size(); ++b) {
        const NodeId z = in[b];
        ++ops.candidate_checks;
        if (arcs.Contains(z, y)) {
          ++ops.triangles;
          emit(x, y, z);
        }
      }
    }
    if constexpr (kHooked<Hook>) {
      hook->Record(x, ops.candidate_checks - before);
    }
  }
  return ops;
}

template <typename Emit, typename Hook>
OpCounts RunT4Impl(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                   Emit emit, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t zi = 0; zi < n; ++zi) {
    const auto z = static_cast<NodeId>(zi);
    const auto out = g.OutNeighbors(z);
    [[maybe_unused]] const int64_t before = ops.candidate_checks;
    // Same pair set as T1, visited x-first.
    for (size_t a = 0; a + 1 < out.size(); ++a) {
      const NodeId x = out[a];
      for (size_t b = a + 1; b < out.size(); ++b) {
        const NodeId y = out[b];
        ++ops.candidate_checks;
        if (arcs.Contains(y, x)) {
          ++ops.triangles;
          emit(x, y, z);
        }
      }
    }
    if constexpr (kHooked<Hook>) {
      hook->Record(z, ops.candidate_checks - before);
    }
  }
  return ops;
}

template <typename Emit, typename Hook>
OpCounts RunT5Impl(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                   Emit emit, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t yi = 0; yi < n; ++yi) {
    const auto y = static_cast<NodeId>(yi);
    const auto in = g.InNeighbors(y);
    const auto out = g.OutNeighbors(y);
    [[maybe_unused]] const int64_t before = ops.candidate_checks;
    for (const NodeId x : out) {
      for (const NodeId z : in) {
        ++ops.candidate_checks;
        if (arcs.Contains(z, x)) {
          ++ops.triangles;
          emit(x, y, z);
        }
      }
    }
    if constexpr (kHooked<Hook>) {
      hook->Record(y, ops.candidate_checks - before);
    }
  }
  return ops;
}

template <typename Emit, typename Hook>
OpCounts RunT6Impl(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                   Emit emit, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t xi = 0; xi < n; ++xi) {
    const auto x = static_cast<NodeId>(xi);
    const auto in = g.InNeighbors(x);
    [[maybe_unused]] const int64_t before = ops.candidate_checks;
    for (size_t b = 1; b < in.size(); ++b) {
      const NodeId z = in[b];
      for (size_t a = 0; a < b; ++a) {
        const NodeId y = in[a];
        ++ops.candidate_checks;
        if (arcs.Contains(z, y)) {
          ++ops.triangles;
          emit(x, y, z);
        }
      }
    }
    if constexpr (kHooked<Hook>) {
      hook->Record(x, ops.candidate_checks - before);
    }
  }
  return ops;
}

}  // namespace

OpCounts RunT1(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink, NodeOpsHook* hook) {
  return kernel::RunToSink(sink, hook, [&](auto emit, auto h) {
    return kernel::T1Range(g, arcs, {}, kernel::End(g), emit, h);
  });
}

OpCounts RunT2(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink, NodeOpsHook* hook) {
  return kernel::RunToSink(sink, hook, [&](auto emit, auto h) {
    return kernel::T2Range(g, arcs, {}, kernel::End(g), emit, h);
  });
}

#define TRILIST_DEFINE_VI(NAME)                                       \
  OpCounts NAME(const OrientedGraph& g, const DirectedEdgeSet& arcs,  \
                TriangleSink* sink, NodeOpsHook* hook) {              \
    return kernel::RunToSink(sink, hook, [&](auto emit, auto h) {     \
      return NAME##Impl(g, arcs, emit, h);                            \
    });                                                               \
  }

TRILIST_DEFINE_VI(RunT3)
TRILIST_DEFINE_VI(RunT4)
TRILIST_DEFINE_VI(RunT5)
TRILIST_DEFINE_VI(RunT6)

#undef TRILIST_DEFINE_VI

}  // namespace trilist
