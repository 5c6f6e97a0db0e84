#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/graph/graph.h"
#include "src/util/status.h"

/// \file io.h
/// Plain-text edge-list serialization, the lingua franca of graph datasets
/// (SNAP, KONECT, the Twitter crawl of Section 7.5 all ship this way).
///
/// Format: one "u v" pair per line, whitespace separated, 0-based IDs;
/// lines starting with '#' or '%' are comments. The node count is
/// max ID + 1 unless a "# nodes N" header is present (the last one wins).
///
/// One text parser serves all three front doors: ReadEdgeList here, the
/// parallel ingester (src/graph/ingest.h) and the out-of-core converter
/// (src/ooc/convert.h) all feed newline-aligned byte ranges through
/// ParseEdgeTextChunk (src/graph/edge_text.h), so they accept the same
/// dialect line for line. ReadEdgeList streams its input in 64 KiB
/// blocks and numbers lines globally in its errors.
///
/// The dialect: a field is an unsigned decimal run that ends at a space,
/// tab, CR or end of line, so "1 2abc" and "-1 2" are malformed
/// (InvalidArgument); columns after the second field are ignored; blank
/// and whitespace-only lines are skipped; an ID >= 2^32 - 1 is
/// OutOfRange. (Before the reader shared the chunk parser it read "1 2abc"
/// as the edge 1-2 and "-1 2" as an out-of-range ID.)
///
/// Two parsing modes: kStrict (the default) enforces the library's
/// simple-graph contract — a self-loop or duplicate edge is
/// InvalidArgument — and is the round-trip inverse of WriteEdgeList;
/// kTolerant accepts what real dataset dumps actually contain (duplicate
/// edges in either direction, self-loops), normalizing away the noise and
/// reporting what it dropped. The ingester additionally relabels sparse
/// node IDs and parses on several threads.

namespace trilist {

/// What a tolerant parse / ingest run saw and did. All counters refer to
/// the input; `num_nodes` / `num_edges` describe the normalized output.
struct IngestStats {
  size_t lines = 0;               ///< Total input lines.
  size_t comment_lines = 0;       ///< '#'/'%' lines (headers included).
  size_t blank_lines = 0;         ///< Empty or whitespace-only lines.
  size_t edges_in = 0;            ///< Parsed "u v" records.
  size_t self_loops_dropped = 0;  ///< Records with u == v.
  size_t duplicates_dropped = 0;  ///< Repeats of an edge, either direction.
  uint64_t max_input_id = 0;      ///< Largest node ID seen in the input.
  bool relabeled = false;         ///< Input IDs were compacted to [0, n).
  size_t num_nodes = 0;           ///< Nodes in the normalized graph.
  size_t num_edges = 0;           ///< Edges in the normalized graph.

  /// One-line human-readable summary for CLI reports.
  std::string Summary() const;
};

/// Parsing strictness of ReadEdgeList.
enum class EdgeListMode {
  kStrict,    ///< Reject self-loops and duplicates (simple-graph contract).
  kTolerant,  ///< Drop self-loops and duplicates.
};

/// Writes `g` as an edge list with a "# nodes N" header. Each undirected
/// edge appears once as "u v" with u < v.
void WriteEdgeList(const Graph& g, std::ostream* out);

/// Parses an edge list. In kStrict mode self-loops and duplicate edges
/// are rejected (InvalidArgument), matching the library's simple-graph
/// contract; in kTolerant mode they are dropped and tallied in `stats`
/// (which may be null). A dropped self-loop's endpoint still counts
/// toward the implicit node count, so a node whose only incident records
/// are self-loops is kept as an isolated node. Malformed lines are
/// errors in both modes.
Result<Graph> ReadEdgeList(std::istream* in,
                           EdgeListMode mode = EdgeListMode::kStrict,
                           IngestStats* stats = nullptr);

/// Convenience file wrappers.
Status WriteEdgeListFile(const Graph& g, const std::string& path);
Result<Graph> ReadEdgeListFile(const std::string& path,
                               EdgeListMode mode = EdgeListMode::kStrict,
                               IngestStats* stats = nullptr);

}  // namespace trilist
