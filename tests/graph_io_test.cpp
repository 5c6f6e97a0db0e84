#include "src/graph/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/algo/brute_force.h"
#include "src/gen/erdos_renyi.h"
#include "src/graph/builder.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

TEST(EdgeListIoTest, RoundTripsSmallGraph) {
  const Graph g = MakeBowTie(4);
  std::stringstream buf;
  WriteEdgeList(g, &buf);
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_nodes(), g.num_nodes());
  EXPECT_EQ(r->EdgeList(), g.EdgeList());
}

TEST(EdgeListIoTest, RoundTripsRandomGraph) {
  Rng rng(3);
  const Graph g = GenerateGnp(500, 0.02, &rng);
  std::stringstream buf;
  WriteEdgeList(g, &buf);
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->EdgeList(), g.EdgeList());
  EXPECT_EQ(CountTrianglesReference(*r), CountTrianglesReference(g));
}

TEST(EdgeListIoTest, PreservesIsolatedNodesViaHeader) {
  // Node 4 is isolated; without the header its existence would be lost.
  auto g = Graph::FromEdges(5, {{0, 1}, {2, 3}}).ValueOrDie();
  std::stringstream buf;
  WriteEdgeList(g, &buf);
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_nodes(), 5u);
}

TEST(EdgeListIoTest, InfersNodeCountWithoutHeader) {
  std::stringstream buf("0 1\n5 2\n");
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_nodes(), 6u);
  EXPECT_TRUE(r->HasEdge(5, 2));
}

TEST(EdgeListIoTest, SkipsCommentsAndBlankLines) {
  std::stringstream buf(
      "# a comment\n% another style\n\n0 1\n# nodes 10\n1 2\n");
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_nodes(), 10u);
  EXPECT_EQ(r->num_edges(), 2u);
}

TEST(EdgeListIoTest, RejectsMalformedLine) {
  std::stringstream buf("0 1\nnot numbers\n");
  auto r = ReadEdgeList(&buf);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(EdgeListIoTest, RejectsSelfLoopAndDuplicate) {
  std::stringstream loop("1 1\n");
  EXPECT_FALSE(ReadEdgeList(&loop).ok());
  std::stringstream dup("0 1\n1 0\n");
  EXPECT_FALSE(ReadEdgeList(&dup).ok());
}

TEST(EdgeListIoTest, EmptyInputIsEmptyGraph) {
  std::stringstream buf("");
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_nodes(), 0u);
}

TEST(EdgeListIoTest, FileRoundTrip) {
  const Graph g = MakeComplete(6);
  const std::string path = ::testing::TempDir() + "/trilist_io_test.txt";
  ASSERT_TRUE(WriteEdgeListFile(g, path).ok());
  auto r = ReadEdgeListFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->EdgeList(), g.EdgeList());
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, MissingFileErrors) {
  auto r = ReadEdgeListFile("/nonexistent/definitely/missing.txt");
  EXPECT_FALSE(r.ok());
}

TEST(EdgeListIoTest, TolerantModeDropsLoopsAndDuplicates) {
  std::stringstream buf("0 0\n0 1\n1 0\n0 1\n1 2\n");
  IngestStats stats;
  auto r = ReadEdgeList(&buf, EdgeListMode::kTolerant, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_edges(), 2u);
  EXPECT_EQ(stats.self_loops_dropped, 1u);
  EXPECT_EQ(stats.duplicates_dropped, 2u);
  EXPECT_EQ(stats.edges_in, 5u);
  EXPECT_EQ(stats.num_edges, 2u);
  EXPECT_FALSE(stats.Summary().empty());
}

TEST(EdgeListIoTest, TolerantModeKeepsSelfLoopOnlyNodeAsIsolated) {
  // Node 5's only incident record is a self-loop; dropping the loop must
  // not shrink the implicit node count, so nodes 0..5 all exist and 5 is
  // isolated.
  std::stringstream buf("0 1\n5 5\n");
  IngestStats stats;
  auto r = ReadEdgeList(&buf, EdgeListMode::kTolerant, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_nodes(), 6u);
  EXPECT_EQ(r->num_edges(), 1u);
  EXPECT_EQ(r->Degree(5), 0);
  EXPECT_EQ(stats.self_loops_dropped, 1u);
}

TEST(EdgeListIoTest, TolerantModeAcceptsCrlfTabsAndTrailingWhitespace) {
  std::stringstream buf("0\t1\r\n1 2 \t\r\n   \r\n2 3\n");
  IngestStats stats;
  auto r = ReadEdgeList(&buf, EdgeListMode::kTolerant, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_edges(), 3u);
  EXPECT_EQ(stats.blank_lines, 1u);
}

TEST(EdgeListIoTest, TolerantModeStillRejectsMalformedLines) {
  std::stringstream buf("0 1\ngarbage here\n");
  auto r = ReadEdgeList(&buf, EdgeListMode::kTolerant);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(EdgeListIoTest, TolerantModeMatchesStrictOnCleanInput) {
  Rng rng(5);
  const Graph g = GenerateGnp(300, 0.03, &rng);
  std::stringstream strict_buf;
  WriteEdgeList(g, &strict_buf);
  std::stringstream tolerant_buf(strict_buf.str());
  auto strict = ReadEdgeList(&strict_buf);
  IngestStats stats;
  auto tolerant =
      ReadEdgeList(&tolerant_buf, EdgeListMode::kTolerant, &stats);
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(tolerant.ok());
  EXPECT_EQ(strict->EdgeList(), tolerant->EdgeList());
  EXPECT_EQ(stats.self_loops_dropped, 0u);
  EXPECT_EQ(stats.duplicates_dropped, 0u);
}

// The reader pulls its input in 64 KiB blocks cut at the last newline.
constexpr size_t kReaderBlock = 64 << 10;

// `count` distinct 8-byte records "uuu vvv\n" with u < v.
std::string FixedWidthRecords(size_t count, std::vector<Edge>* edges) {
  std::string text;
  char line[16];
  for (size_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(100 + i / 100);
    const auto v = static_cast<NodeId>(500 + i % 100);
    std::snprintf(line, sizeof(line), "%03u %03u\n", u, v);
    text += line;
    edges->emplace_back(u, v);
  }
  return text;
}

TEST(EdgeListIoTest, MalformedLineAfterBlockBoundaryReportsGlobalLine) {
  std::vector<Edge> edges;
  std::string text = FixedWidthRecords(kReaderBlock / 8, &edges);
  ASSERT_EQ(text.size(), kReaderBlock);  // the first block ends on a line
  text += "not an edge\n0 1\n";
  std::stringstream buf(text);
  auto r = ReadEdgeList(&buf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  const std::string want = "line " + std::to_string(kReaderBlock / 8 + 1);
  EXPECT_NE(r.status().message().find(want + ":"), std::string::npos)
      << r.status().message();
}

TEST(EdgeListIoTest, RecordStraddlingBlockBoundaryParses) {
  // A 4-byte comment shifts every record so one spans bytes
  // [kReaderBlock - 4, kReaderBlock + 4).
  std::vector<Edge> edges;
  const std::string text =
      "# s\n" + FixedWidthRecords(kReaderBlock / 8 + 16, &edges);
  std::stringstream buf(text);
  IngestStats stats;
  auto r = ReadEdgeList(&buf, EdgeListMode::kStrict, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Graph want =
      Graph::FromEdges(600, edges).ValueOrDie();  // max ID 599
  EXPECT_EQ(r->num_nodes(), want.num_nodes());
  EXPECT_EQ(r->EdgeList(), want.EdgeList());
  EXPECT_EQ(stats.lines, edges.size() + 1);
  EXPECT_EQ(stats.edges_in, edges.size());
}

TEST(EdgeListIoTest, LineLongerThanABlockParses) {
  std::stringstream buf("# " + std::string(3 * kReaderBlock, 'x') +
                        "\n0 1\n1 2");
  IngestStats stats;
  auto r = ReadEdgeList(&buf, EdgeListMode::kStrict, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_edges(), 2u);
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.comment_lines, 1u);
}

TEST(EdgeListIoTest, StreamAndFileReadersAgreeOnMultiBlockInput) {
  Rng rng(11);
  const Graph g = GenerateGnp(3000, 0.01, &rng);
  const std::string path = ::testing::TempDir() + "/trilist_io_blocks.txt";
  ASSERT_TRUE(WriteEdgeListFile(g, path).ok());
  std::stringstream buf;
  WriteEdgeList(g, &buf);
  ASSERT_GT(buf.str().size(), 4 * kReaderBlock);
  auto from_stream = ReadEdgeList(&buf);
  auto from_file = ReadEdgeListFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(from_stream.ok()) << from_stream.status().ToString();
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  EXPECT_EQ(from_stream->num_nodes(), g.num_nodes());
  EXPECT_EQ(from_file->num_nodes(), g.num_nodes());
  EXPECT_EQ(from_stream->EdgeList(), g.EdgeList());
  EXPECT_EQ(from_file->EdgeList(), g.EdgeList());
}

TEST(EdgeListIoTest, IdAtTheNodeIdLimitIsOutOfRange) {
  for (const EdgeListMode mode :
       {EdgeListMode::kStrict, EdgeListMode::kTolerant}) {
    std::stringstream buf("0 1\n2 4294967295\n");
    auto r = ReadEdgeList(&buf, mode);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(EdgeListIoTest, FieldsAreUnsignedDecimalRuns) {
  // Trailing garbage on a field and a sign are malformed, not a truncated
  // edge or a wrapped-around ID.
  for (const char* text : {"1 2abc\n", "-1 2\n"}) {
    std::stringstream buf(std::string("0 1\n") + text);
    auto r = ReadEdgeList(&buf);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
  }
}

TEST(BitsetOracleTest, AgreesWithOtherOracles) {
  Rng rng(9);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = GenerateGnp(150, 0.02 + 0.03 * trial, &rng);
    EXPECT_EQ(CountTrianglesBitset(g), CountTrianglesReference(g)) << trial;
  }
  EXPECT_EQ(CountTrianglesBitset(MakeComplete(10)), 120u);
  EXPECT_EQ(CountTrianglesBitset(MakeEmpty(10)), 0u);
  EXPECT_EQ(CountTrianglesBitset(MakeStar(20)), 0u);
}

}  // namespace
}  // namespace trilist
