#pragma once

#include "src/algo/cost.h"
#include "src/algo/exec_policy.h"
#include "src/algo/triangle_sink.h"
#include "src/algo/vertex_iterator.h"  // OpCounts
#include "src/graph/edge_set.h"
#include "src/graph/oriented_graph.h"

/// \file parallel_engine.h
/// Multi-threaded drivers for the four fundamental cost classes T1, T2,
/// E1, E4 (the paper's non-isomorphic representatives, Section 2).
///
/// ## One kernel body, many ranges
/// Each method has exactly one kernel body (kernel_body.h): a loop over a
/// range of the outer iteration space, where every node v owns a run of
/// "outer positions" (pair index, in-list index, or arc index depending
/// on the method). The serial run is the whole space; this engine runs
/// the same body once per chunk.
///
/// ## Partitioning
/// The planner assigns each position its paper-cost weight — pairs below
/// it for T1, X_v for T2, local + remote list lengths for E1/E4 — and
/// cuts the concatenated position space into chunks of (approximately)
/// equal total weight. Cuts may land *inside* a node's range: a Pareto
/// hub whose quadratic work exceeds a chunk budget is split across as
/// many chunks (and hence workers) as its weight demands, so no single
/// vertex can serialize the run. Chunks are claimed dynamically from the
/// pool's atomic counter.
///
/// ## Emitters and determinism
/// Chunks are contiguous slices of the *serial* iteration order and each
/// accumulates into its own OpCounts, so the summed counters are
/// bit-identical to the serial run for every thread count (all counters
/// are exact integer sums over a partition of the serial iteration
/// space). What a chunk does with its triangles depends on the sink:
///  * a sink whose CountsOnly() is true (CountingSink) gets the
///    count-only emitter: chunks store nothing, and the total is credited
///    once through TriangleSink::Add — memory is independent of T;
///  * any other sink gets the ordered emitter: each chunk buffers its
///    triangles and the merge replays the buffers in chunk order, so the
///    sink sees the exact serial emission sequence. Only this emitter
///    buffers.
///
/// Methods outside {T1, T2, E1, E4}, and runs with one thread, use the
/// serial engine (which picks its emitter from the sink the same way).

namespace trilist {

/// True for the methods with a parallel driver (T1, T2, E1, E4).
bool SupportsParallel(Method m);

/// Runs `m` under `policy`, building the arc set internally when the
/// method is a vertex iterator (as RunMethod does).
OpCounts RunMethodParallel(Method m, const OrientedGraph& g,
                           TriangleSink* sink, const ExecPolicy& policy);

/// Same, reusing a caller-provided arc set for vertex iterators.
OpCounts RunMethodParallel(Method m, const OrientedGraph& g,
                           const DirectedEdgeSet& arcs, TriangleSink* sink,
                           const ExecPolicy& policy);

}  // namespace trilist
