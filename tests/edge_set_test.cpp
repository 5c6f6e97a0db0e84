#include "src/graph/edge_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/gen/erdos_renyi.h"
#include "src/graph/builder.h"
#include "src/order/pipeline.h"
#include "src/util/flat_hash_set.h"
#include "src/util/rng.h"

/// Differential test of the row-local arc index against the whole-graph
/// hash set of packed (from, to) keys it replaced: same answer for every
/// arc, every reversed arc and sampled non-arcs, on both sides of the
/// scan/hash cut-off.

namespace trilist {
namespace {

uint64_t PackArc(NodeId from, NodeId to) {
  return (uint64_t{from} << 32) | to;
}

/// Compares DirectedEdgeSet with a FlatHashSet64 of packed arcs on `og`:
/// every arc, every reversed arc, `samples` random non-arcs, and targets
/// past the last node id.
void ExpectMatchesReference(const OrientedGraph& og, Rng* rng,
                            size_t samples) {
  const size_t n = og.num_nodes();
  ASSERT_GT(n, 0u);
  FlatHashSet64 reference(og.num_arcs());
  for (size_t i = 0; i < n; ++i) {
    const auto from = static_cast<NodeId>(i);
    for (const NodeId to : og.OutNeighbors(from)) {
      reference.Insert(PackArc(from, to));
    }
  }
  const DirectedEdgeSet arcs(og);
  ASSERT_EQ(arcs.size(), og.num_arcs());
  ASSERT_EQ(reference.size(), og.num_arcs());

  size_t wrong = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto from = static_cast<NodeId>(i);
    for (const NodeId to : og.OutNeighbors(from)) {
      wrong += !arcs.Contains(from, to);
      wrong += arcs.Contains(to, from) != reference.Contains(PackArc(to, from));
    }
  }
  EXPECT_EQ(wrong, 0u) << "arcs or reversed arcs disagree";

  size_t non_arcs = 0;
  for (size_t k = 0; k < 4 * samples && non_arcs < samples; ++k) {
    const auto from = static_cast<NodeId>(rng->NextBounded(n));
    const auto to = static_cast<NodeId>(rng->NextBounded(n));
    const bool want = reference.Contains(PackArc(from, to));
    wrong += arcs.Contains(from, to) != want;
    non_arcs += !want;
  }
  EXPECT_GE(non_arcs, samples);
  for (size_t i = 0; i < n; ++i) {
    const auto from = static_cast<NodeId>(i);
    wrong += arcs.Contains(from, static_cast<NodeId>(n));
    wrong += arcs.Contains(from, DirectedEdgeSet::kEmpty - 1);
    wrong += arcs.Contains(from, DirectedEdgeSet::kEmpty);
  }
  // Sources with no row (a forged neighbor ID of an unvalidated paged
  // open) answer false rather than reading past the row starts.
  for (const size_t from : {n, n + 1, size_t{DirectedEdgeSet::kEmpty}}) {
    for (const size_t to : {size_t{0}, n - 1}) {
      wrong += arcs.Contains(static_cast<NodeId>(from),
                             static_cast<NodeId>(to));
    }
  }
  EXPECT_EQ(wrong, 0u) << "sampled pairs disagree";
}

/// Out-degrees of `og`, sorted, for row-coverage assertions.
std::vector<int64_t> SortedOutDegrees(const OrientedGraph& og) {
  std::vector<int64_t> degrees = og.OutDegrees();
  std::sort(degrees.begin(), degrees.end());
  return degrees;
}

bool HasDegree(const std::vector<int64_t>& sorted, int64_t d) {
  return std::binary_search(sorted.begin(), sorted.end(), d);
}

TEST(DirectedEdgeSetIndexTest, EmptyGraph) {
  const DirectedEdgeSet arcs{OrientedGraph()};
  EXPECT_EQ(arcs.size(), 0u);
}

TEST(DirectedEdgeSetIndexTest, RowLengthsAcrossTheCutoff) {
  // Identity labels, so node i's out-row is exactly its neighbors below
  // i: rows of 0, 1, 16 and 17 arcs, rows at the 64 -> 128 capacity
  // step (31..33 arcs), and a last node adjacent to everything.
  const size_t n = 1200;
  GraphBuilder builder(n);
  builder.AddEdge(1, 0);
  for (NodeId x = 0; x < 16; ++x) builder.AddEdge(20, x);
  for (NodeId x = 0; x < 17; ++x) builder.AddEdge(21, x);
  for (NodeId d = 31; d <= 33; ++d) {
    for (NodeId x = 0; x < d; ++x) builder.AddEdge(100 + d, 2 * x + 1);
  }
  const auto last = static_cast<NodeId>(n - 1);
  for (NodeId x = 0; x < last; ++x) builder.AddEdge(last, x);
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  std::vector<NodeId> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = static_cast<NodeId>(i);
  const OrientedGraph og = OrientedGraph::FromLabels(*g, identity);

  EXPECT_EQ(og.OutDegree(0), 0);
  EXPECT_EQ(og.OutDegree(1), 1);
  EXPECT_EQ(og.OutDegree(20), 16);
  EXPECT_EQ(og.OutDegree(21), 17);
  EXPECT_EQ(og.OutDegree(last), static_cast<int64_t>(n - 1));
  Rng rng(41);
  ExpectMatchesReference(og, &rng, 10000);

  const DirectedEdgeSet arcs(og);
  EXPECT_TRUE(arcs.Contains(last, 0));
  EXPECT_TRUE(arcs.Contains(last, last - 1));
  EXPECT_FALSE(arcs.Contains(last, last));
  EXPECT_FALSE(arcs.Contains(0, last));
  EXPECT_TRUE(arcs.Contains(20, 15));
  EXPECT_FALSE(arcs.Contains(20, 16));
  EXPECT_TRUE(arcs.Contains(21, 16));
  EXPECT_FALSE(arcs.Contains(21, 17));
}

TEST(DirectedEdgeSetIndexTest, MatchesHashSetOnGnp) {
  Rng rng(7);
  const Graph g = GenerateGnp(2000, 0.012, &rng);
  for (const PermutationKind kind :
       {PermutationKind::kDescending, PermutationKind::kUniform}) {
    const OrientedGraph og = OrientNamed(g, kind, &rng);
    const auto degrees = SortedOutDegrees(og);
    EXPECT_TRUE(HasDegree(degrees, 0));
    EXPECT_LE(degrees.front(), 16);
    EXPECT_GT(degrees.back(), 16);
    ExpectMatchesReference(og, &rng, 10000);
  }
}

TEST(DirectedEdgeSetIndexTest, MatchesHashSetOnStarPlusClique) {
  // A hub adjacent to every node, a 60-clique and a sparse random
  // background. Ascending order gives the hub the last label and an
  // out-row of n - 1 arcs; descending order gives it label 0 and moves
  // the long rows to the clique.
  const size_t n = 3000;
  Rng rng(13);
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.AddEdge(0, v);
  for (NodeId u = 1; u <= 60; ++u) {
    for (NodeId v = u + 1; v <= 60; ++v) builder.AddEdge(u, v);
  }
  const Graph background = GenerateGnp(n, 0.004, &rng);
  for (size_t u = 0; u < n; ++u) {
    for (const NodeId v : background.Neighbors(static_cast<NodeId>(u))) {
      const bool in_star = u == 0 || v == 0;
      const bool in_clique = u >= 1 && u <= 60 && v >= 1 && v <= 60;
      if (u < v && !in_star && !in_clique) {
        builder.AddEdge(static_cast<NodeId>(u), v);
      }
    }
  }
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  for (const PermutationKind kind :
       {PermutationKind::kAscending, PermutationKind::kDescending}) {
    const OrientedGraph og = OrientNamed(*g, kind, &rng);
    const auto degrees = SortedOutDegrees(og);
    EXPECT_TRUE(HasDegree(degrees, 0));
    EXPECT_TRUE(HasDegree(degrees, 1));
    EXPECT_GT(degrees.back(), 16);
    ExpectMatchesReference(og, &rng, 10000);
  }
  const OrientedGraph ascending = OrientNamed(*g, PermutationKind::kAscending);
  EXPECT_EQ(ascending.OutDegree(static_cast<NodeId>(n - 1)),
            static_cast<int64_t>(n - 1));
}

}  // namespace
}  // namespace trilist
