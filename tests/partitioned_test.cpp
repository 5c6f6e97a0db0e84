#include "src/xm/partitioned.h"

#include <gtest/gtest.h>

#include "src/algo/edge_iterator.h"
#include "src/algo/intersect.h"
#include "src/algo/registry.h"
#include "src/algo/sei_common.h"
#include "src/degree/graphicality.h"
#include "src/degree/pareto.h"
#include "src/degree/truncated.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/residual_generator.h"
#include "src/graph/builder.h"
#include "src/graph/graph.h"
#include "src/order/pipeline.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

Graph HeavyGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  const DiscretePareto base(1.7, 10.0);
  const TruncatedDistribution fn(base, 40);
  std::vector<int64_t> degrees(n);
  for (auto& d : degrees) d = fn.Sample(&rng);
  MakeGraphic(&degrees);
  ResidualGenOptions options;
  options.strict = false;
  return GenerateExactDegree(degrees, &rng, nullptr, options).ValueOrDie();
}

/// G(n, p) plus a hub (node n) adjacent to every even node. Under the
/// ascending order the hub takes the top label, so its out-list holds
/// half the graph and straddles every partition boundary.
Graph HubbedGnp(size_t n, double p, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n + 1);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = u + 1; v < n; ++v) {
      if (rng.NextDouble() < p) {
        builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
      }
    }
  }
  for (size_t v = 0; v < n; v += 2) {
    builder.AddEdge(static_cast<NodeId>(n), static_cast<NodeId>(v));
  }
  return std::move(builder).Build().ValueOrDie();
}

/// A reference partitioned run that finds every local or remote prefix
/// by binary search (sei::PrefixBelow) instead of a cursor or an offset.
/// It pins the emission order and counters of RunPartitionedE1/E2.
OpCounts SearchingPartitionedRun(const OrientedGraph& g,
                                 const Partitioning& parts, bool e2,
                                 CollectingSink* sink) {
  OpCounts ops;
  const auto n = static_cast<NodeId>(g.num_nodes());
  auto intersect = [&](std::span<const NodeId> local,
                       std::span<const NodeId> remote, NodeId y, NodeId z) {
    ops.local_scans += static_cast<int64_t>(local.size());
    ops.remote_scans += static_cast<int64_t>(remote.size());
    ops.merge_comparisons += IntersectMergeT(local, remote, [&](NodeId x) {
      ++ops.triangles;
      sink->Consume(x, y, z);
    });
  };
  for (size_t p = 0; p < parts.num_partitions(); ++p) {
    const NodeId lo = parts.lower(p);
    const NodeId hi = parts.upper(p);
    for (NodeId v = 0; v < n; ++v) {
      const auto streamed = g.OutNeighbors(v);
      if (e2) {
        for (const NodeId y : sei::RangeWithin(streamed, lo, hi)) {
          intersect(g.OutNeighbors(y), sei::PrefixBelow(streamed, y), y, v);
        }
      } else {
        for (const NodeId z : sei::RangeWithin(g.InNeighbors(v), lo, hi)) {
          intersect(sei::PrefixBelow(g.OutNeighbors(z), v), streamed, v, z);
        }
      }
    }
  }
  return ops;
}

void ExpectSameOps(const OpCounts& got, const OpCounts& want) {
  EXPECT_EQ(got.triangles, want.triangles);
  EXPECT_EQ(got.candidate_checks, want.candidate_checks);
  EXPECT_EQ(got.local_scans, want.local_scans);
  EXPECT_EQ(got.remote_scans, want.remote_scans);
  EXPECT_EQ(got.merge_comparisons, want.merge_comparisons);
  EXPECT_EQ(got.hash_inserts, want.hash_inserts);
  EXPECT_EQ(got.lookups, want.lookups);
  EXPECT_EQ(got.binary_searches, want.binary_searches);
}

TEST(PartitioningTest, CoversLabelSpaceContiguously) {
  const Graph g = HeavyGraph(500, 1);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  for (size_t k : {1u, 2u, 3u, 7u, 100u}) {
    const Partitioning parts(og, k);
    EXPECT_GE(parts.num_partitions(), 1u);
    EXPECT_LE(parts.num_partitions(), k);
    EXPECT_EQ(parts.lower(0), 0u);
    EXPECT_EQ(parts.upper(parts.num_partitions() - 1), og.num_nodes());
    for (size_t p = 0; p + 1 < parts.num_partitions(); ++p) {
      EXPECT_EQ(parts.upper(p), parts.lower(p + 1));
      EXPECT_LT(parts.lower(p), parts.upper(p));
    }
  }
}

TEST(PartitioningTest, MemoryBudgetDerivesK) {
  const Graph g = HeavyGraph(500, 2);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  const auto total =
      static_cast<int64_t>(og.num_arcs() * sizeof(NodeId));
  const Partitioning one = Partitioning::ForMemoryBudget(og, total * 2);
  EXPECT_EQ(one.num_partitions(), 1u);
  const Partitioning several =
      Partitioning::ForMemoryBudget(og, total / 4 + 1);
  EXPECT_GE(several.num_partitions(), 3u);
  EXPECT_LE(several.num_partitions(), 5u);
}

class PartitionedEquivalenceTest : public ::testing::TestWithParam<size_t> {
};

TEST_P(PartitionedEquivalenceTest, E1MatchesInMemory) {
  const size_t k = GetParam();
  const Graph g = HeavyGraph(600, 3);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  CollectingSink reference;
  const OpCounts mem = RunE1(og, &reference);
  const Partitioning parts(og, k);
  CollectingSink partitioned;
  IoStats io;
  const OpCounts xm = RunPartitionedE1(og, parts, &partitioned, &io);
  EXPECT_EQ(partitioned.Sorted(), reference.Sorted());
  EXPECT_EQ(xm.local_scans, mem.local_scans);
  EXPECT_EQ(xm.remote_scans, mem.remote_scans);
  EXPECT_EQ(xm.triangles, mem.triangles);
  // I/O ledger: one resident load of the whole graph across passes, one
  // full stream per pass.
  const auto graph_bytes =
      static_cast<int64_t>(og.num_arcs() * sizeof(NodeId));
  EXPECT_EQ(io.passes, static_cast<int64_t>(parts.num_partitions()));
  EXPECT_EQ(io.bytes_loaded, graph_bytes);
  EXPECT_EQ(io.bytes_streamed, io.passes * graph_bytes);
}

TEST_P(PartitionedEquivalenceTest, E2MatchesInMemory) {
  const size_t k = GetParam();
  const Graph g = HeavyGraph(600, 4);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  CollectingSink reference;
  const OpCounts mem = RunE2(og, &reference);
  const Partitioning parts(og, k);
  CollectingSink partitioned;
  IoStats io;
  const OpCounts xm = RunPartitionedE2(og, parts, &partitioned, &io);
  EXPECT_EQ(partitioned.Sorted(), reference.Sorted());
  EXPECT_EQ(xm.local_scans, mem.local_scans);
  EXPECT_EQ(xm.remote_scans, mem.remote_scans);
  EXPECT_EQ(xm.triangles, mem.triangles);
  EXPECT_EQ(io.bytes_loaded,
            static_cast<int64_t>(og.num_arcs() * sizeof(NodeId)));
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, PartitionedEquivalenceTest,
                         ::testing::Values(1, 2, 3, 8, 64));

TEST(PartitionedTest, SharedPassMatchesInMemoryAndSearchingLoops) {
  // 1, 2 and >= 3 partitions, with the hub's out-list crossing every
  // boundary: the E1 cursor walks it across passes, and E2 takes its
  // prefixes from offsets deep inside it.
  const Graph g = HubbedGnp(400, 0.08, 7);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kAscending);
  const auto hub = og.OutNeighbors(static_cast<NodeId>(og.num_nodes() - 1));
  ASSERT_GE(hub.size(), 200u);
  for (const size_t k : {1u, 2u, 3u, 5u}) {
    const Partitioning parts(og, k);
    ASSERT_EQ(parts.num_partitions(), k);
    for (size_t p = 1; p < parts.num_partitions(); ++p) {
      ASSERT_LT(hub.front(), parts.lower(p));
      ASSERT_GE(hub.back(), parts.lower(p));
    }
    for (const bool e2 : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "k=" << k << " e2=" << e2);
      CollectingSink in_memory;
      const OpCounts mem =
          RunMethod(e2 ? Method::kE2 : Method::kE1, og, &in_memory);
      CollectingSink searching;
      const OpCounts want = SearchingPartitionedRun(og, parts, e2, &searching);
      CollectingSink got;
      IoStats io;
      const OpCounts ops = e2 ? RunPartitionedE2(og, parts, &got, &io)
                              : RunPartitionedE1(og, parts, &got, &io);
      ExpectSameOps(ops, want);
      ExpectSameOps(ops, mem);
      EXPECT_EQ(got.triangles(), searching.triangles());
      EXPECT_EQ(got.Sorted(), in_memory.Sorted());
      EXPECT_GT(ops.triangles, 0);
    }
  }
}

TEST(PartitionedTest, DisagreeingRowsFallBackToSearch) {
  // A paged .tlg is not validated on open, so its in- and out-rows may
  // disagree. Here the top label joins every in-row that ends below it,
  // far more visits than its out-row has entries: the E1 cursor must
  // search N+(z) instead of reading past it.
  const OrientedGraph good =
      OrientNamed(HeavyGraph(300, 9), PermutationKind::kDescending);
  const auto n = static_cast<NodeId>(good.num_nodes());
  const NodeId top = n - 1;
  const auto copy = [](auto span) {
    return std::vector(span.begin(), span.end());
  };
  const auto out_offsets = copy(good.RawOutOffsets());
  const auto out_neighbors = copy(good.RawOutNeighbors());
  const auto in_offsets = copy(good.RawInOffsets());
  auto in_neighbors = copy(good.RawInNeighbors());
  int forged = 0;
  for (NodeId y = 0; y < top; ++y) {
    const auto row = good.InNeighbors(y);
    if (!row.empty() && row.back() < top) {
      in_neighbors[in_offsets[y + 1] - 1] = top;
      ++forged;
    }
  }
  ASSERT_GT(forged, good.OutDegree(top) + 1);
  std::vector<NodeId> original_of(n);
  for (NodeId v = 0; v < n; ++v) original_of[v] = v;
  const OrientedGraph bad = OrientedGraph::FromCsrView(
      out_offsets, out_neighbors, in_offsets, in_neighbors, original_of,
      nullptr);
  for (const size_t k : {1u, 3u}) {
    const Partitioning parts(bad, k);
    CollectingSink want_sink;
    const OpCounts want =
        SearchingPartitionedRun(bad, parts, false, &want_sink);
    CollectingSink got_sink;
    const OpCounts got = RunPartitionedE1(bad, parts, &got_sink, nullptr);
    ExpectSameOps(got, want);
    EXPECT_EQ(got_sink.triangles(), want_sink.triangles());
  }
}

TEST(PartitionedTest, EmptyGraph) {
  const OrientedGraph og =
      OrientNamed(MakeEmpty(0), PermutationKind::kAscending);
  const Partitioning parts(og, 4);
  CollectingSink sink;
  IoStats io;
  const OpCounts ops = RunPartitionedE1(og, parts, &sink, &io);
  EXPECT_EQ(ops.triangles, 0);
  EXPECT_EQ(io.bytes_loaded, 0);
}

TEST(PartitionedTest, MorePartitionsMoreStreaming) {
  // The I/O trade-off the paper's future work targets: streamed bytes
  // grow linearly with K while resident loads stay constant.
  const Graph g = HeavyGraph(800, 5);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  CollectingSink sink1;
  CollectingSink sink8;
  IoStats io1;
  IoStats io8;
  RunPartitionedE1(og, Partitioning(og, 1), &sink1, &io1);
  RunPartitionedE1(og, Partitioning(og, 8), &sink8, &io8);
  EXPECT_EQ(io1.bytes_loaded, io8.bytes_loaded);
  EXPECT_EQ(io8.bytes_streamed, io8.passes * io1.bytes_streamed);
  EXPECT_GT(io8.passes, io1.passes);
}

}  // namespace
}  // namespace trilist
