#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file edge_text.h
/// The one edge-list text parser, shared by the streaming reader
/// (ReadEdgeList, src/graph/io.cpp), the in-memory ingester
/// (src/graph/ingest.cpp) and the out-of-core conversion pipeline
/// (src/ooc/convert.cpp). All three feed newline-aligned byte ranges
/// through ParseEdgeTextChunk and compose the per-chunk tallies in input
/// order, so they agree line for line on what a dataset contains — same
/// accepted records, same dropped self-loops, same error lines.
///
/// Accepts what real dataset dumps contain: '#'/'%' comments (including
/// the "# nodes N" header), blank lines, CRLF endings, tab separators,
/// and trailing columns (weights, timestamps) which are ignored.

namespace trilist {

/// A raw parsed record, endpoints as written in the input.
using RawEdgeRecord = std::pair<uint64_t, uint64_t>;

/// What one parser chunk produced. Chunks are newline-aligned slices of
/// the input, so every counter composes by summation in chunk order.
struct EdgeTextChunk {
  std::vector<RawEdgeRecord> records;  ///< self-loops already dropped
  std::vector<uint64_t> loop_ids;  ///< endpoints of dropped self-loops
  size_t lines = 0;
  size_t comment_lines = 0;
  size_t blank_lines = 0;
  size_t edges_in = 0;
  size_t self_loops = 0;
  uint64_t max_id = 0;
  bool has_header = false;
  uint64_t header_nodes = 0;
  bool has_error = false;
  size_t error_line = 0;  ///< chunk-local, 1-based
  std::string error_text;

  /// Resets the per-call output fields, keeping vector capacity — the
  /// streaming consumer reuses one chunk across the whole input.
  void Clear() {
    records.clear();
    loop_ids.clear();
    lines = 0;
    comment_lines = 0;
    blank_lines = 0;
    edges_in = 0;
    self_loops = 0;
    max_id = 0;
    has_header = false;
    header_nodes = 0;
    has_error = false;
    error_line = 0;
    error_text.clear();
  }
};

/// Parses the lines in [begin, end) into `out` (appending to its
/// tallies). `end` must be a line boundary or the end of the input.
/// Stops at the first malformed record, reporting it via has_error.
void ParseEdgeTextChunk(const char* begin, const char* end,
                        EdgeTextChunk* out);

}  // namespace trilist
