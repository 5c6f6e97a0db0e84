#include "src/graph/io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/edge_text.h"

namespace trilist {

std::string IngestStats::Summary() const {
  std::ostringstream out;
  out << lines << " lines (" << comment_lines << " comments, "
      << blank_lines << " blank), " << edges_in << " edge records -> "
      << num_edges << " edges over " << num_nodes << " nodes";
  if (self_loops_dropped > 0 || duplicates_dropped > 0) {
    out << " (dropped " << self_loops_dropped << " self-loops, "
        << duplicates_dropped << " duplicates)";
  }
  if (relabeled) {
    out << ", sparse IDs relabeled (max input ID " << max_input_id << ")";
  }
  return out.str();
}

void WriteEdgeList(const Graph& g, std::ostream* out) {
  *out << "# nodes " << g.num_nodes() << "\n";
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(static_cast<NodeId>(u))) {
      if (v > u) *out << u << " " << v << "\n";
    }
  }
}

Result<Graph> ReadEdgeList(std::istream* in, EdgeListMode mode,
                           IngestStats* stats) {
  const bool tolerant = mode == EdgeListMode::kTolerant;
  const uint64_t id_limit = std::numeric_limits<NodeId>::max();
  IngestStats local;
  std::vector<Edge> edges;
  bool has_header = false;
  uint64_t header_nodes = 0;
  EdgeTextChunk chunk;

  // Folds one parsed block into the totals. Parsing stops at a malformed
  // line, so an oversized ID or header tallied before it wins.
  const auto consume = [&]() -> Status {
    if (chunk.max_id >= id_limit || chunk.header_nodes >= id_limit) {
      return Status::OutOfRange("node ID too large after line " +
                                std::to_string(local.lines));
    }
    if (chunk.has_error) {
      return Status::InvalidArgument(
          "malformed edge at line " +
          std::to_string(local.lines + chunk.error_line) + ": '" +
          chunk.error_text + "'");
    }
    local.lines += chunk.lines;
    local.comment_lines += chunk.comment_lines;
    local.blank_lines += chunk.blank_lines;
    local.edges_in += chunk.edges_in;
    local.max_input_id = std::max(local.max_input_id, chunk.max_id);
    if (chunk.has_header) {  // the last header wins
      has_header = true;
      header_nodes = chunk.header_nodes;
    }
    for (const RawEdgeRecord& r : chunk.records) {
      edges.emplace_back(static_cast<NodeId>(r.first),
                         static_cast<NodeId>(r.second));
    }
    // The parser sets self-loops aside: strict mode hands them back to
    // Graph::FromEdges, which rejects them, and tolerant mode drops them.
    if (tolerant) {
      local.self_loops_dropped += chunk.self_loops;
    } else {
      for (const uint64_t id : chunk.loop_ids) {
        edges.emplace_back(static_cast<NodeId>(id), static_cast<NodeId>(id));
      }
    }
    chunk.Clear();
    return Status::OK();
  };

  // 64 KiB blocks cut after their last newline; the unfinished tail
  // moves to the front and completes with the next read (a line longer
  // than the buffer doubles it).
  std::string buf(64 << 10, '\0');
  size_t carry = 0;
  while (true) {
    if (carry == buf.size()) buf.resize(buf.size() * 2);
    in->read(buf.data() + carry,
             static_cast<std::streamsize>(buf.size() - carry));
    const size_t filled = carry + static_cast<size_t>(in->gcount());
    if (filled == carry) break;
    const size_t nl = std::string_view(buf.data(), filled).rfind('\n');
    if (nl == std::string_view::npos) {
      carry = filled;
      continue;
    }
    ParseEdgeTextChunk(buf.data(), buf.data() + nl + 1, &chunk);
    TRILIST_RETURN_NOT_OK(consume());
    carry = filled - (nl + 1);
    std::memmove(buf.data(), buf.data() + nl + 1, carry);
  }
  ParseEdgeTextChunk(buf.data(), buf.data() + carry, &chunk);
  TRILIST_RETURN_NOT_OK(consume());

  if (tolerant) {
    // Canonicalize (min, max), then sort + unique to drop duplicates
    // regardless of the direction they were written in.
    for (Edge& e : edges) {
      if (e.first > e.second) std::swap(e.first, e.second);
    }
    std::sort(edges.begin(), edges.end());
    const auto last = std::unique(edges.begin(), edges.end());
    local.duplicates_dropped = static_cast<size_t>(edges.end() - last);
    edges.erase(last, edges.end());
  }
  local.num_nodes = has_header          ? header_nodes
                    : local.edges_in > 0 ? local.max_input_id + 1 : 0;
  local.num_edges = edges.size();
  if (stats != nullptr) *stats = local;
  return Graph::FromEdges(local.num_nodes, edges);
}

Status WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  WriteEdgeList(g, &out);
  out.flush();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<Graph> ReadEdgeListFile(const std::string& path, EdgeListMode mode,
                               IngestStats* stats) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open for reading: " + path);
  }
  return ReadEdgeList(&in, mode, stats);
}

}  // namespace trilist
