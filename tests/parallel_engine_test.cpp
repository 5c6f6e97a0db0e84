#include "src/algo/parallel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/algo/registry.h"
#include "src/degree/graphicality.h"
#include "src/degree/pareto.h"
#include "src/degree/truncated.h"
#include "src/gen/configuration_model.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/preferential_attachment.h"
#include "src/graph/builder.h"
#include "src/order/pipeline.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"

// Every operator new of the test binary adds its size here, so a test can
// bound what one call allocates (array new forwards to operator new). The
// replacements pair malloc with free; GCC cannot see that through the
// replaced operators and would flag the frees as mismatched.
namespace {
std::atomic<uint64_t> g_new_bytes{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace trilist {
namespace {

// ---------------------------------------------------------------------------
// Thread-pool primitive.

TEST(ParallelForTest, EveryChunkRunsExactlyOnce) {
  constexpr size_t kChunks = 1000;
  std::vector<std::atomic<int>> hits(kChunks);
  for (auto& h : hits) h.store(0);
  ThreadPool pool(8);
  pool.ParallelFor(kChunks, [&](size_t c) { hits[c].fetch_add(1); });
  for (size_t c = 0; c < kChunks; ++c) {
    ASSERT_EQ(hits[c].load(), 1) << "chunk " << c;
  }
}

TEST(ParallelForTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(round + 1, [&](size_t c) {
      sum.fetch_add(static_cast<int64_t>(c));
    });
    EXPECT_EQ(sum.load(), static_cast<int64_t>(round) * (round + 1) / 2);
  }
}

TEST(ParallelForTest, DegenerateShapesRunInline) {
  int calls = 0;
  ParallelFor(1, 5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
  ParallelFor(8, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
  ParallelFor(8, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 6);
}

TEST(ParallelForTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t c) {
                         if (c == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> ok{0};
  pool.ParallelFor(8, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ParallelForTest, PrefixSumMatchesSerialScan) {
  Rng rng(7);
  std::vector<size_t> values(1237);
  for (auto& v : values) v = rng.NextBounded(100);
  std::vector<size_t> expected = values;
  std::partial_sum(expected.begin(), expected.end(), expected.begin());
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<size_t> actual = values;
    ParallelInclusivePrefixSum(&pool, &actual);
    EXPECT_EQ(actual, expected) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Parallel/serial equivalence of the listing engine.

/// The three random families of the equivalence matrix: ER, Pareto
/// configuration model, preferential attachment; plus a clique, whose
/// orientation concentrates all work on hub rows and so exercises the
/// mid-vertex chunk cuts.
Graph MakeEquivalenceGraph(const std::string& kind) {
  Rng rng(20170514);
  if (kind == "er") return GenerateGnp(400, 0.025, &rng);
  if (kind == "config_pareto") {
    const DiscretePareto base = DiscretePareto::PaperParameterization(1.5);
    const TruncatedDistribution fn(base, 60);
    std::vector<int64_t> degrees(600);
    for (auto& d : degrees) d = fn.Sample(&rng);
    MakeGraphic(&degrees);
    return ConfigurationModel(degrees, &rng).ValueOrDie();
  }
  if (kind == "pa") {
    return GeneratePreferentialAttachment(400, 4, &rng).ValueOrDie();
  }
  if (kind == "clique") return MakeComplete(40);
  ADD_FAILURE() << "unknown graph kind " << kind;
  return Graph();
}

void ExpectSameOps(const OpCounts& a, const OpCounts& b,
                   const std::string& label) {
  EXPECT_EQ(a.candidate_checks, b.candidate_checks) << label;
  EXPECT_EQ(a.local_scans, b.local_scans) << label;
  EXPECT_EQ(a.remote_scans, b.remote_scans) << label;
  EXPECT_EQ(a.merge_comparisons, b.merge_comparisons) << label;
  EXPECT_EQ(a.hash_inserts, b.hash_inserts) << label;
  EXPECT_EQ(a.lookups, b.lookups) << label;
  EXPECT_EQ(a.binary_searches, b.binary_searches) << label;
  EXPECT_EQ(a.triangles, b.triangles) << label;
}

TEST(ParallelEngineTest, MatchesSerialOnAllFamiliesMethodsAndWidths) {
  for (const std::string kind : {"er", "config_pareto", "pa", "clique"}) {
    const Graph g = MakeEquivalenceGraph(kind);
    for (PermutationKind order :
         {PermutationKind::kDescending, PermutationKind::kRoundRobin}) {
      Rng rng(3);
      const OrientedGraph og = OrientNamed(g, order, &rng);
      const DirectedEdgeSet arcs(og);
      for (Method m :
           {Method::kT1, Method::kT2, Method::kE1, Method::kE4}) {
        CollectingSink serial_sink;
        const OpCounts serial = RunMethod(m, og, arcs, &serial_sink);
        for (int threads : {1, 2, 8}) {
          const std::string label = kind + "/" + MethodName(m) +
                                    "/threads=" + std::to_string(threads);
          ExecPolicy exec;
          exec.threads = threads;
          CollectingSink parallel_sink;
          const OpCounts parallel =
              RunMethodParallel(m, og, arcs, &parallel_sink, exec);
          ExpectSameOps(serial, parallel, label);
          // Not just the same multiset: the deterministic merge replays
          // chunks in serial order, so the emission sequence is identical.
          EXPECT_EQ(serial_sink.triangles(), parallel_sink.triangles())
              << label;
        }
      }
    }
  }
}

TEST(ParallelEngineTest, FineChunkingStaysExact) {
  // Far more chunks than work: boundary handling must not drop or
  // duplicate positions even when most chunks are empty.
  const Graph g = MakeComplete(12);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  const DirectedEdgeSet arcs(og);
  for (Method m : {Method::kT1, Method::kT2, Method::kE1, Method::kE4}) {
    CollectingSink serial_sink;
    const OpCounts serial = RunMethod(m, og, arcs, &serial_sink);
    ExecPolicy exec;
    exec.threads = 8;
    exec.chunks_per_thread = 64;  // 512 chunks over ~66 arcs
    CollectingSink parallel_sink;
    const OpCounts parallel =
        RunMethodParallel(m, og, arcs, &parallel_sink, exec);
    ExpectSameOps(serial, parallel, MethodName(m));
    EXPECT_EQ(serial_sink.triangles(), parallel_sink.triangles());
  }
}

TEST(ParallelEngineTest, CountOnlyRunsMatchSerialUnderEveryBackend) {
  // A CountingSink takes the count-only emitter at every width (threads =
  // 1 included, which is the serial engine's count path). Its count and
  // every counter must equal the serial run that observes each triangle.
  // The clique's orientation puts all work on hub rows, so the fine
  // chunkings cut inside nodes; the Pareto graph mixes hubs and leaves.
  for (const std::string kind : {"config_pareto", "clique"}) {
    const Graph g = MakeEquivalenceGraph(kind);
    const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
    const DirectedEdgeSet arcs(og);
    for (Method m : {Method::kT1, Method::kT2, Method::kE1, Method::kE4}) {
      for (IntersectBackend backend :
           {IntersectBackend::kMerge, IntersectBackend::kGallop,
            IntersectBackend::kAuto, IntersectBackend::kSimd,
            IntersectBackend::kBitmap}) {
        ExecPolicy serial_exec;
        serial_exec.intersect = backend;
        serial_exec.bitmap_min_degree = 8;  // give both graphs hub rows
        CollectingSink serial_sink;
        const OpCounts serial =
            RunMethod(m, og, arcs, &serial_sink, serial_exec);
        for (int threads : {1, 2, 3, 8}) {
          for (int chunks_per_thread : {1, 64}) {
            const std::string label =
                kind + "/" + MethodName(m) + "/" +
                IntersectBackendName(backend) +
                "/threads=" + std::to_string(threads) +
                "/chunks=" + std::to_string(chunks_per_thread);
            ExecPolicy exec = serial_exec;
            exec.threads = threads;
            exec.chunks_per_thread = chunks_per_thread;
            CountingSink sink;
            const OpCounts ops =
                RunMethodParallel(m, og, arcs, &sink, exec);
            ExpectSameOps(serial, ops, label);
            EXPECT_EQ(sink.count(), serial_sink.triangles().size())
                << label;
          }
        }
      }
    }
  }
}

TEST(ParallelEngineTest, CountOnlyMemoryIsIndependentOfTriangleCount) {
  // K_300 has C(300, 3) = 4,455,100 triangles over 44,850 edges: buffering
  // them takes 53 MB, while a count-only run must allocate only its plan,
  // pool and per-chunk counters.
  const OrientedGraph og =
      OrientNamed(MakeComplete(300), PermutationKind::kDescending);
  const DirectedEdgeSet arcs(og);
  constexpr uint64_t kTriangles = 4455100;
  ExecPolicy exec;
  exec.threads = 4;
  for (Method m : {Method::kT1, Method::kT2, Method::kE1, Method::kE4}) {
    CountingSink counting;
    const uint64_t before = g_new_bytes.load();
    RunMethodParallel(m, og, arcs, &counting, exec);
    const uint64_t count_bytes = g_new_bytes.load() - before;
    EXPECT_EQ(counting.count(), kTriangles) << MethodName(m);
    EXPECT_LT(count_bytes, uint64_t{1} << 20) << MethodName(m);

    // The ordered emitter does buffer every triangle — the contrast that
    // shows the allocation counter sees the engine at all.
    uint64_t observed = 0;
    CallbackSink ordered([&observed](NodeId, NodeId, NodeId) { ++observed; });
    const uint64_t before_ordered = g_new_bytes.load();
    RunMethodParallel(m, og, arcs, &ordered, exec);
    const uint64_t ordered_bytes = g_new_bytes.load() - before_ordered;
    EXPECT_EQ(observed, kTriangles) << MethodName(m);
    EXPECT_GE(ordered_bytes, kTriangles * sizeof(Triangle)) << MethodName(m);
  }
}

TEST(ParallelEngineTest, SupportsParallelIsExactlyTheFundamentalSet) {
  for (Method m : AllMethods()) {
    const bool expected = m == Method::kT1 || m == Method::kT2 ||
                          m == Method::kE1 || m == Method::kE4;
    EXPECT_EQ(SupportsParallel(m), expected) << MethodName(m);
  }
}

TEST(ParallelEngineTest, UnsupportedMethodsFallBackToSerial) {
  const Graph g = MakeEquivalenceGraph("er");
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  for (Method m : {Method::kT3, Method::kE5, Method::kL1}) {
    CollectingSink serial_sink;
    const OpCounts serial = RunMethod(m, og, &serial_sink);
    ExecPolicy exec;
    exec.threads = 8;
    CollectingSink fallback_sink;
    const OpCounts fallback = RunMethod(m, og, &fallback_sink, exec);
    ExpectSameOps(serial, fallback, MethodName(m));
    EXPECT_EQ(serial_sink.triangles(), fallback_sink.triangles());
  }
}

TEST(ParallelEngineTest, RegistryPolicyOverloadBuildsArcsItself) {
  const Graph g = MakeEquivalenceGraph("config_pareto");
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  for (Method m : {Method::kT1, Method::kE4}) {
    CollectingSink serial_sink;
    const OpCounts serial = RunMethod(m, og, &serial_sink);
    ExecPolicy exec;
    exec.threads = 4;
    CollectingSink parallel_sink;
    const OpCounts parallel = RunMethod(m, og, &parallel_sink, exec);
    ExpectSameOps(serial, parallel, MethodName(m));
    EXPECT_EQ(serial_sink.triangles(), parallel_sink.triangles());
  }
}

TEST(ParallelEngineTest, EmptyAndTriangleFreeGraphs) {
  for (const Graph& g : {MakeEmpty(30), MakeStar(30), MakePath(30)}) {
    const OrientedGraph og = OrientNamed(g, PermutationKind::kAscending);
    for (Method m : {Method::kT1, Method::kT2, Method::kE1, Method::kE4}) {
      ExecPolicy exec;
      exec.threads = 8;
      CountingSink sink;
      const OpCounts ops = RunMethodParallel(m, og, &sink, exec);
      EXPECT_EQ(sink.count(), 0u);
      EXPECT_EQ(ops.triangles, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel orientation.

TEST(ParallelOrientTest, FromLabelsMatchesSerialForAnyThreadCount) {
  for (const std::string kind : {"er", "config_pareto", "pa", "clique"}) {
    const Graph g = MakeEquivalenceGraph(kind);
    for (PermutationKind order :
         {PermutationKind::kDescending, PermutationKind::kRoundRobin,
          PermutationKind::kDegenerate}) {
      Rng rng_serial(5);
      const OrientedGraph serial = OrientNamed(g, order, &rng_serial);
      for (int threads : {2, 8}) {
        Rng rng_parallel(5);
        const OrientedGraph parallel =
            OrientNamed(g, order, &rng_parallel, threads);
        const std::string label = kind + "/threads=" +
                                  std::to_string(threads);
        ASSERT_EQ(serial.num_nodes(), parallel.num_nodes()) << label;
        ASSERT_EQ(serial.num_arcs(), parallel.num_arcs()) << label;
        EXPECT_TRUE(std::equal(serial.original_of().begin(),
                               serial.original_of().end(),
                               parallel.original_of().begin(),
                               parallel.original_of().end()))
            << label;
        for (size_t i = 0; i < serial.num_nodes(); ++i) {
          const auto node = static_cast<NodeId>(i);
          const auto so = serial.OutNeighbors(node);
          const auto po = parallel.OutNeighbors(node);
          ASSERT_TRUE(std::equal(so.begin(), so.end(), po.begin(),
                                 po.end()))
              << label << " out row " << i;
          const auto si = serial.InNeighbors(node);
          const auto pi = parallel.InNeighbors(node);
          ASSERT_TRUE(std::equal(si.begin(), si.end(), pi.begin(),
                                 pi.end()))
              << label << " in row " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace trilist
