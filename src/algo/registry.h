#pragma once

#include "src/algo/cost.h"
#include "src/algo/exec_policy.h"
#include "src/algo/triangle_sink.h"
#include "src/algo/vertex_iterator.h"
#include "src/graph/edge_set.h"
#include "src/graph/oriented_graph.h"

/// \file registry.h
/// Uniform dispatch over the 18 listing methods, so sweeps ("run every
/// method under every permutation") are one loop in callers.

namespace trilist {

/// Runs `m` on the oriented graph, building the directed-arc index
/// internally when the method is a vertex iterator.
OpCounts RunMethod(Method m, const OrientedGraph& g, TriangleSink* sink);

/// Same, but reuses a caller-provided arc set for vertex iterators (the
/// set is ignored by the other families).
OpCounts RunMethod(Method m, const OrientedGraph& g,
                   const DirectedEdgeSet& arcs, TriangleSink* sink);

/// Runs `m` under an execution policy. With exec.threads > 1 the four
/// fundamental methods (T1, T2, E1, E4) dispatch to the parallel engine
/// (see parallel_engine.h), which reports bit-identical triangles and
/// counters to the serial run; every other method runs serial.
OpCounts RunMethod(Method m, const OrientedGraph& g, TriangleSink* sink,
                   const ExecPolicy& exec);

/// Policy variant reusing a caller-provided arc set.
OpCounts RunMethod(Method m, const OrientedGraph& g,
                   const DirectedEdgeSet& arcs, TriangleSink* sink,
                   const ExecPolicy& exec);

/// Runs `m` serially with a per-node op hook attached, so callers can
/// attribute measured work to individual nodes (see op_hook.h for the
/// attribution rules). The hook path always runs serial: attribution is
/// a profiling pass, and a serial pass keeps Record() free of
/// synchronization. `hook` must be non-null.
OpCounts RunMethodProfiled(Method m, const OrientedGraph& g,
                           const DirectedEdgeSet& arcs, TriangleSink* sink,
                           NodeOpsHook* hook);

/// Profiled run honoring the policy's intersection backend for the
/// scanning edge iterators (still serial; exec.threads is ignored). The
/// attribution invariant — per-node sums equal PaperCost — holds for
/// every backend, because attribution records span lengths, which no
/// intersection algorithm changes.
OpCounts RunMethodProfiled(Method m, const OrientedGraph& g,
                           const DirectedEdgeSet& arcs, TriangleSink* sink,
                           NodeOpsHook* hook, const ExecPolicy& exec);

}  // namespace trilist
