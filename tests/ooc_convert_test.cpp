#include "src/ooc/convert.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/algo/registry.h"
#include "src/algo/triangle_sink.h"
#include "src/algo/vertex_iterator.h"
#include "src/gen/erdos_renyi.h"
#include "src/graph/binfmt.h"
#include "src/graph/builder.h"
#include "src/graph/graph.h"
#include "src/graph/ingest.h"
#include "src/graph/io.h"
#include "src/ooc/chunk_reader.h"
#include "src/ooc/paged_count.h"
#include "src/order/pipeline.h"
#include "src/util/rng.h"
#include "src/xm/partitioned.h"

namespace trilist::ooc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<unsigned char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void Spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// A compact-ID edge-list file big enough to force spilling under the
/// 1 MiB budget floor (both arcs of every edge enter the sorter).
std::string SampleEdgeListFile(const std::string& name) {
  Rng rng(31);
  const Graph g = GenerateGnp(5000, 0.02, &rng);
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteEdgeListFile(g, path).ok());
  return path;
}

/// Small budget so every stage of the pipeline actually spills.
OocConvertOptions TightOptions() {
  OocConvertOptions options;
  options.mem_budget_bytes = 1 << 20;
  options.tmpdir = ::testing::TempDir();
  return options;
}

TEST(ChunkReaderTest, ReassemblesFileInOrder) {
  const std::string path = TempPath("chunks.bin");
  {
    std::ofstream out(path, std::ios::binary);
    Rng rng(5);
    for (int i = 0; i < 300000; ++i) {
      const char c = static_cast<char>(rng.Next() & 0xff);
      out.write(&c, 1);
    }
  }
  const std::vector<unsigned char> want = Slurp(path);
  for (const bool direct : {true, false}) {
    ChunkReaderOptions ropts;
    ropts.chunk_bytes = 8 << 10;  // many chunks through the slot ring
    ropts.queue_depth = 3;
    ropts.workers = 2;
    ropts.direct_io = direct;
    auto opened = ChunkReader::Open(path, ropts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ChunkReader& reader = opened.ValueOrDie();
    EXPECT_EQ(reader.file_size(), want.size());
    std::vector<unsigned char> got;
    while (true) {
      auto chunk = reader.Next();
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      if (chunk->empty()) break;
      got.insert(got.end(), chunk->begin(), chunk->end());
    }
    EXPECT_EQ(got, want) << "direct=" << direct;
    EXPECT_EQ(reader.stats().bytes_read,
              static_cast<int64_t>(want.size()));
    EXPECT_GT(reader.stats().chunks, 10);
  }
}

TEST(ChunkReaderTest, MissingFileIsClearError) {
  EXPECT_FALSE(ChunkReader::Open("/nonexistent/trilist-input").ok());
}

TEST(OocConvertTest, ByteIdenticalToInMemoryPipeline) {
  const std::string text = SampleEdgeListFile("ooc_sample.txt");
  const std::vector<OrientSpec> orients = {
      {PermutationKind::kDescending, 0},
      {PermutationKind::kAscending, 0},
      {PermutationKind::kRoundRobin, 0},
      {PermutationKind::kComplementaryRoundRobin, 0},
      {PermutationKind::kUniform, 77}};

  const std::string mem_path = TempPath("ooc_mem.tlg");
  auto ingested = IngestEdgeListFile(text);
  ASSERT_TRUE(ingested.ok());
  TlgWriteOptions wopts;
  wopts.orientations = orients;
  ASSERT_TRUE(WriteTlgFile(ingested->graph, mem_path, wopts).ok());

  const std::string ooc_path = TempPath("ooc_out.tlg");
  OocConvertOptions options = TightOptions();
  options.orientations = orients;
  auto report = OocConvertFile(text, ooc_path, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(Slurp(mem_path), Slurp(ooc_path));
  EXPECT_GT(report->spill_runs, 0) << "budget must force real spilling";
  EXPECT_GT(report->spill_bytes, 0);
  EXPECT_GT(report->input_bytes, 0);
  EXPECT_GT(report->output_bytes, 0);
  EXPECT_EQ(report->ingest.num_edges, ingested->stats.num_edges);
}

TEST(OocConvertTest, DirtyInputStatsMatchInMemoryIngester) {
  const std::string path = TempPath("ooc_dirty.txt");
  Spit(path,
       "# comment header\n"
       "0 1\n"
       "1 0\n"        // duplicate (reversed)
       "2 2\n"        // self-loop
       "\n"
       "   \n"
       "% other comment\n"
       "1 2\r\n"      // CRLF
       "0\t2\n"       // tab separated
       "0 2\n");      // duplicate
  auto ingested = IngestEdgeListFile(path);
  ASSERT_TRUE(ingested.ok());

  const std::string out = TempPath("ooc_dirty.tlg");
  auto report = OocConvertFile(path, out, TightOptions());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const IngestStats& a = report->ingest;
  const IngestStats& b = ingested->stats;
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.comment_lines, b.comment_lines);
  EXPECT_EQ(a.blank_lines, b.blank_lines);
  EXPECT_EQ(a.edges_in, b.edges_in);
  EXPECT_EQ(a.self_loops_dropped, b.self_loops_dropped);
  EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped);
  EXPECT_EQ(a.max_input_id, b.max_input_id);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.num_edges, b.num_edges);

  auto t = TlgFile::Open(out);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->graph().num_nodes(), 3u);
  EXPECT_EQ(t->graph().num_edges(), 3u);
}

TEST(OocConvertTest, MalformedLineReportsGlobalLineNumber) {
  const std::string path = TempPath("ooc_bad.txt");
  Spit(path, "0 1\n1 2\nnot an edge\n2 3\n");
  const std::string out = TempPath("ooc_bad.tlg");
  auto report = OocConvertFile(path, out, TightOptions());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("line 3"), std::string::npos)
      << report.status().ToString();
}

TEST(OocConvertTest, DegenerateOrientationRejected) {
  const std::string path = TempPath("ooc_degen.txt");
  Spit(path, "0 1\n1 2\n");
  OocConvertOptions options = TightOptions();
  options.orientations = {{PermutationKind::kDegenerate, 0}};
  auto report =
      OocConvertFile(path, TempPath("ooc_degen.tlg"), options);
  EXPECT_FALSE(report.ok());
}

TEST(OocConvertTest, TmpdirSpaceCheckFailsFastWithClearMessage) {
  const std::string text = SampleEdgeListFile("ooc_space.txt");
  OocConvertOptions options = TightOptions();
  options.free_bytes_override = 1024;  // pretend a nearly-full tmpfs
  auto report = OocConvertFile(text, TempPath("ooc_space.tlg"), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().ToString().find("--tmpdir"),
            std::string::npos)
      << report.status().ToString();

  const Status direct = CheckTmpdirSpace(text, ::testing::TempDir(),
                                         /*num_orientations=*/1,
                                         /*free_bytes_override=*/1024);
  EXPECT_FALSE(direct.ok());
}

/// A G(n, p) edge-list file plus a hub adjacent to every even node. Its
/// ~1.5 MB of out-lists split into 1, 2 or >= 3 paged partitions at
/// budgets of 8, 2 and 1 MiB; under the ascending order the hub takes the
/// top label, so its out-list crosses every partition boundary.
std::string HubbedEdgeListFile(const std::string& name) {
  constexpr size_t kNodes = 20000;
  Rng rng(47);
  const Graph gnp = GenerateGnp(kNodes, 0.0018, &rng);
  GraphBuilder builder(kNodes + 1);
  for (NodeId u = 0; u < kNodes; ++u) {
    for (const NodeId v : gnp.Neighbors(u)) {
      if (u < v) builder.AddEdge(u, v);
    }
    if (u % 2 == 0) builder.AddEdge(kNodes, u);
  }
  const std::string path = TempPath(name);
  EXPECT_TRUE(
      WriteEdgeListFile(std::move(builder).Build().ValueOrDie(), path).ok());
  return path;
}

TEST(OocPagedCountTest, MatchesInMemoryExecutorsAndLedger) {
  const std::string text = HubbedEdgeListFile("ooc_count.txt");
  const std::string path = TempPath("ooc_count.tlg");
  const std::vector<OrientSpec> specs = {{PermutationKind::kDescending, 0},
                                         {PermutationKind::kAscending, 0}};
  OocConvertOptions options = TightOptions();
  options.orientations = specs;
  ASSERT_TRUE(OocConvertFile(text, path, options).ok());

  auto t = TlgFile::Open(path);
  ASSERT_TRUE(t.ok());
  for (const OrientSpec& spec : specs) {
    const OrientedGraph* og = t->FindOrientation(spec);
    ASSERT_NE(og, nullptr);
    const bool ascending = spec.kind == PermutationKind::kAscending;
    const auto hub =
        og->OutNeighbors(static_cast<NodeId>(og->num_nodes() - 1));
    CountingSink e1_sink;
    CountingSink e2_sink;
    const OpCounts in_memory[] = {RunMethod(Method::kE1, *og, &e1_sink),
                                  RunMethod(Method::kE2, *og, &e2_sink)};
    // Budgets and the partition counts they give (3 meaning >= 3).
    const std::pair<int64_t, size_t> budgets[] = {
        {8 << 20, 1}, {2 << 20, 2}, {1 << 20, 3}};
    for (const auto& [budget, min_partitions] : budgets) {
      OocCountOptions copts;
      copts.mem_budget_bytes = budget;
      copts.spec = spec;
      // Reference: the simulated partitioned executor over the same
      // partitioning (the paged path funds partitions with half the
      // budget; see paged_count.h).
      const Partitioning parts =
          Partitioning::ForMemoryBudget(*og, budget / 2);
      const size_t k = parts.num_partitions();
      ASSERT_EQ(std::min<size_t>(k, 3), min_partitions);
      for (size_t p = 1; ascending && p < k; ++p) {
        ASSERT_LT(hub.front(), parts.lower(p));
        ASSERT_GE(hub.back(), parts.lower(p));
      }
      for (const bool use_e2 : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "ascending=" << ascending << " budget=" << budget
                     << " e2=" << use_e2);
        copts.use_e2 = use_e2;
        auto counted = OocCountTlg(path, copts);
        ASSERT_TRUE(counted.ok()) << counted.status().ToString();

        CountingSink sink;
        IoStats io;
        const OpCounts want = use_e2
                                  ? RunPartitionedE2(*og, parts, &sink, &io)
                                  : RunPartitionedE1(*og, parts, &sink, &io);
        // The pass shared by the paged and partitioned runs must also
        // agree with the in-memory kernels, not only with itself.
        const OpCounts& mem = in_memory[use_e2 ? 1 : 0];
        for (const OpCounts* ref : {&want, &mem}) {
          EXPECT_EQ(counted->ops.triangles, ref->triangles);
          EXPECT_EQ(counted->ops.candidate_checks, ref->candidate_checks);
          EXPECT_EQ(counted->ops.local_scans, ref->local_scans);
          EXPECT_EQ(counted->ops.remote_scans, ref->remote_scans);
          EXPECT_EQ(counted->ops.merge_comparisons, ref->merge_comparisons);
        }
        EXPECT_GT(counted->ops.triangles, 0);
        EXPECT_EQ(sink.count(), static_cast<uint64_t>(mem.triangles));
        EXPECT_EQ(counted->partitions, static_cast<int64_t>(k));
        EXPECT_EQ(counted->io.passes, io.passes);
        EXPECT_EQ(counted->io.bytes_loaded, io.bytes_loaded);
        EXPECT_EQ(counted->io.bytes_streamed, io.bytes_streamed);
        if (counted->mmap_backed && counted->partitions > 1) {
          EXPECT_GT(counted->evictions, 0);
        }
      }
    }
  }
}

TEST(OocPagedCountTest, MissingOrientationIsClearError) {
  const std::string text = SampleEdgeListFile("ooc_missing.txt");
  const std::string path = TempPath("ooc_missing.tlg");
  OocConvertOptions options = TightOptions();
  options.orientations = {{PermutationKind::kDescending, 0}};
  ASSERT_TRUE(OocConvertFile(text, path, options).ok());

  OocCountOptions copts;
  copts.spec = {PermutationKind::kUniform, 5};
  auto counted = OocCountTlg(path, copts);
  ASSERT_FALSE(counted.ok());
  EXPECT_EQ(counted.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace trilist::ooc
