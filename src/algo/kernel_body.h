#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/algo/cost.h"
#include "src/algo/exec_policy.h"
#include "src/algo/intersect.h"
#include "src/algo/op_hook.h"
#include "src/algo/sei_common.h"
#include "src/algo/simd/intersect_engine.h"
#include "src/algo/triangle_sink.h"
#include "src/algo/vertex_iterator.h"  // OpCounts
#include "src/graph/edge_set.h"
#include "src/graph/oriented_graph.h"

/// \file kernel_body.h
/// The one kernel body of each fundamental method (T1, T2, E1, E4). The
/// serial entry points (RunT1, RunT2, RunE1, RunE4) and the parallel
/// engine both run these bodies; they differ only in the range they pass
/// and the emitter they pick.
///
/// ## Ranges
/// Each method is a loop over an outer iteration space: every node v owns
/// OuterLen(m, v) "outer positions" (pair index for T1, in-list index for
/// T2, arc index for E1/E4). A body runs the half-open range [lo, hi)
/// between two (node, position) cuts of that space, in serial order. The
/// serial run is [(0, 0), (n, 0)); the parallel engine plans weighted
/// cuts (which may split a hub's positions) and runs one range per chunk.
///
/// ## Template parameters
/// Every body is a template on three things, all resolved at compile
/// time:
///  * the intersection functor (E1/E4 only): DirectMerge, the scalar
///    merge with the backend arguments compiled away, or EngineIsect,
///    which routes through a simd::IntersectEngine;
///  * the emitter, called as emit(x, y, z) once per triangle after the
///    body has bumped OpCounts::triangles: SinkEmit forwards to a
///    TriangleSink, BufferEmit appends to a chunk's buffer for ordered
///    replay, and CountEmit does nothing — the count is the body's own
///    OpCounts::triangles;
///  * the op hook (NoHook compiles attribution away).

namespace trilist {
namespace kernel {

/// A boundary in the outer iteration space: the first (node, position)
/// of a range. Cuts with pos > 0 land inside a node's positions.
struct Cut {
  NodeId node = 0;
  size_t pos = 0;
};

/// The end of the whole iteration space, [(0, 0), End(g)) being the
/// serial run.
inline Cut End(const OrientedGraph& g) {
  return Cut{static_cast<NodeId>(g.num_nodes()), 0};
}

/// Length of node v's outer position range under method m.
inline size_t OuterLen(Method m, const OrientedGraph& g, NodeId v) {
  return static_cast<size_t>(m == Method::kT2 ? g.InDegree(v)
                                              : g.OutDegree(v));
}

/// Calls slice(v, p0, p1) for each node's share of [lo, hi), in serial
/// order. Every node wholly inside the range gets exactly one call, empty
/// or not, so a hooked serial run records every node once.
template <Method M, typename Slice>
void ForEachSlice(const OrientedGraph& g, Cut lo, Cut hi, Slice&& slice) {
  const size_t n = g.num_nodes();
  NodeId v = lo.node;
  size_t start = lo.pos;
  for (; v < n && v < hi.node; ++v, start = 0) {
    slice(v, start, OuterLen(M, g, v));
  }
  if (v < n && v == hi.node && start < hi.pos) slice(v, start, hi.pos);
}

// ---------------------------------------------------------------------------
// Emitters.

/// Forwards every triangle to a sink, in emission order.
struct SinkEmit {
  TriangleSink* sink;
  void operator()(NodeId x, NodeId y, NodeId z) const {
    sink->Consume(x, y, z);
  }
};

/// Appends every triangle to a buffer (a parallel chunk's, replayed in
/// chunk order once all chunks are done).
struct BufferEmit {
  std::vector<Triangle>* out;
  void operator()(NodeId x, NodeId y, NodeId z) const {
    out->push_back({x, y, z});
  }
};

/// Stores nothing: the body's OpCounts::triangles is the whole output.
struct CountEmit {
  void operator()(NodeId, NodeId, NodeId) const {}
};

// ---------------------------------------------------------------------------
// Intersection functors.

/// The scalar merge, with the hub and window arguments compiled away —
/// the zero-overhead path of every run on the default backend.
struct DirectMerge {
  template <typename Emit>
  void operator()(std::span<const NodeId> a, simd::SpanOwner,
                  std::span<const NodeId> b, simd::SpanOwner, NodeId,
                  NodeId, int64_t* comparisons, Emit&& emit) const {
    *comparisons += IntersectMergeT(a, b, emit);
  }
};

/// Routes every intersection, with its row owners and value window,
/// through the engine's selected backend.
struct EngineIsect {
  simd::IntersectEngine* engine;
  template <typename Emit>
  void operator()(std::span<const NodeId> a, simd::SpanOwner oa,
                  std::span<const NodeId> b, simd::SpanOwner ob, NodeId lo,
                  NodeId hi, int64_t* comparisons, Emit&& emit) const {
    engine->Intersect(a, oa, b, ob, lo, hi, comparisons, emit);
  }
};

/// Calls body(isect) with the functor `engine` implies: DirectMerge for a
/// null engine or the default merge backend, EngineIsect otherwise.
template <typename Body>
OpCounts WithIsect(simd::IntersectEngine* engine, Body&& body) {
  if (engine != nullptr && engine->backend() != IntersectBackend::kMerge) {
    return body(EngineIsect{engine});
  }
  return body(DirectMerge{});
}

/// Calls body(emit, hook) with the emitter `sink` asks for and the hook
/// variant `hook` selects. A counting sink gets CountEmit and one bulk
/// Add of the run's triangles afterwards; any other sink sees every
/// triangle, in order, through SinkEmit.
template <typename Body>
OpCounts RunToSink(TriangleSink* sink, NodeOpsHook* hook, Body&& body) {
  auto with_hook = [&](auto emit) {
    return hook != nullptr ? body(emit, hook) : body(emit, NoHook{});
  };
  if (sink->CountsOnly()) {
    const OpCounts ops = with_hook(CountEmit{});
    sink->Add(static_cast<uint64_t>(ops.triangles));
    return ops;
  }
  return with_hook(SinkEmit{sink});
}

// ---------------------------------------------------------------------------
// The bodies. Attribution follows op_hook.h: vertex iterators charge each
// visited node its candidate checks; SEI charges the local range to the
// outer node (accumulated per slice) and the remote range to the remote
// endpoint, one Record per arc. Window arguments (intersect_engine.h):
// [0, y) for E1, (x, z) for E4.

/// T1: visit z; pair x < y from N+(z), y at the range's positions; verify
/// arc y -> x.
template <typename Emit, typename Hook>
OpCounts T1Range(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                 Cut lo, Cut hi, Emit emit, Hook hook) {
  OpCounts ops;
  ForEachSlice<Method::kT1>(g, lo, hi, [&](NodeId z, size_t p0, size_t p1) {
    const auto out = g.OutNeighbors(z);
    [[maybe_unused]] const int64_t before = ops.candidate_checks;
    // Pairs x < y; lists are sorted, so index order is label order.
    for (size_t b = p0; b < p1; ++b) {
      const NodeId y = out[b];
      const DirectedEdgeSet::Row row_y = arcs.RowOf(y);
      for (size_t a = 0; a < b; ++a) {
        const NodeId x = out[a];
        ++ops.candidate_checks;
        if (row_y.Contains(x)) {
          ++ops.triangles;
          emit(x, y, z);
        }
      }
    }
    if constexpr (kHooked<Hook>) {
      hook->Record(z, ops.candidate_checks - before);
    }
  });
  return ops;
}

/// T2: visit y; pair z in N-(y), at the range's positions, with x in
/// N+(y); verify arc z -> x.
template <typename Emit, typename Hook>
OpCounts T2Range(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                 Cut lo, Cut hi, Emit emit, Hook hook) {
  OpCounts ops;
  ForEachSlice<Method::kT2>(g, lo, hi, [&](NodeId y, size_t p0, size_t p1) {
    const auto in = g.InNeighbors(y);
    const auto out = g.OutNeighbors(y);
    [[maybe_unused]] const int64_t before = ops.candidate_checks;
    for (size_t zi = p0; zi < p1; ++zi) {
      const NodeId z = in[zi];
      const DirectedEdgeSet::Row row_z = arcs.RowOf(z);
      for (const NodeId x : out) {
        ++ops.candidate_checks;
        if (row_z.Contains(x)) {
          ++ops.triangles;
          emit(x, y, z);
        }
      }
    }
    if constexpr (kHooked<Hook>) {
      hook->Record(y, ops.candidate_checks - before);
    }
  });
  return ops;
}

/// E1: visit z; for y in N+(z) at the range's positions, intersect N+(z)
/// below y with N+(y).
template <typename Emit, typename Hook, typename Isect>
OpCounts E1Range(const OrientedGraph& g, Cut lo, Cut hi, Emit emit,
                 Hook hook, Isect isect) {
  OpCounts ops;
  ForEachSlice<Method::kE1>(g, lo, hi, [&](NodeId z, size_t p0, size_t p1) {
    const auto out = g.OutNeighbors(z);
    [[maybe_unused]] int64_t local_total = 0;
    for (size_t idx = p0; idx < p1; ++idx) {
      const NodeId y = out[idx];
      const auto local = out.first(idx);  // elements of N+(z) below y
      const auto remote = g.OutNeighbors(y);
      ops.local_scans += static_cast<int64_t>(local.size());
      ops.remote_scans += static_cast<int64_t>(remote.size());
      if constexpr (kHooked<Hook>) {
        local_total += static_cast<int64_t>(local.size());
        hook->Record(y, static_cast<int64_t>(remote.size()));
      }
      isect(local, {z, true}, remote, {y, true}, 0, y,
            &ops.merge_comparisons, [&](NodeId x) {
              ++ops.triangles;
              emit(x, y, z);
            });
    }
    if constexpr (kHooked<Hook>) hook->Record(z, local_total);
  });
  return ops;
}

/// E4: visit z; for x in N+(z) at the range's positions, intersect N+(z)
/// above x with N-(x) below z.
template <typename Emit, typename Hook, typename Isect>
OpCounts E4Range(const OrientedGraph& g, Cut lo, Cut hi, Emit emit,
                 Hook hook, Isect isect) {
  OpCounts ops;
  ForEachSlice<Method::kE4>(g, lo, hi, [&](NodeId z, size_t p0, size_t p1) {
    const auto out = g.OutNeighbors(z);
    [[maybe_unused]] int64_t local_total = 0;
    for (size_t idx = p0; idx < p1; ++idx) {
      const NodeId x = out[idx];
      const auto local = out.subspan(idx + 1);  // y candidates above x
      const auto remote = sei::PrefixBelow(g.InNeighbors(x), z);
      ops.local_scans += static_cast<int64_t>(local.size());
      ops.remote_scans += static_cast<int64_t>(remote.size());
      if constexpr (kHooked<Hook>) {
        local_total += static_cast<int64_t>(local.size());
        hook->Record(x, static_cast<int64_t>(remote.size()));
      }
      isect(local, {z, true}, remote, {x, false}, x + 1, z,
            &ops.merge_comparisons, [&](NodeId y) {
              ++ops.triangles;
              emit(x, y, z);
            });
    }
    if constexpr (kHooked<Hook>) hook->Record(z, local_total);
  });
  return ops;
}

}  // namespace kernel
}  // namespace trilist
