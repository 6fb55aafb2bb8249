#include "nucleus/graph/edge_list_io.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/graph/generators.h"
#include "nucleus/graph/graph_builder.h"
#include "nucleus/parallel/parallel_config.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::CsrOffsets;
using testing_util::GraphCase;
using testing_util::GraphZoo;
using testing_util::TempPath;

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Appends the path edges "v v+1" for v = *next, *next + 1, ... and then one
// '#' comment line as padding, so that `text` ends exactly at byte `bytes`.
// Returns the number of lines appended.
std::int64_t AppendPathLinesTo(std::string* text, std::size_t bytes,
                               VertexId* next) {
  std::int64_t lines = 0;
  for (; text->size() + 40 < bytes; ++*next, ++lines) {
    *text += std::to_string(*next) + " " + std::to_string(*next + 1) + "\n";
  }
  const std::size_t pad = bytes - text->size() - 2;
  text->append("#").append(pad, 'p').append("\n");
  return lines + 1;
}

// True iff g is exactly the path 0 - 1 - ... - edges.
bool IsPath(const Graph& g, VertexId edges) {
  if (g.NumVertices() != edges + 1 || g.NumEdges() != edges) return false;
  for (VertexId v = 0; v < edges; ++v) {
    if (!g.HasEdge(v, v + 1)) return false;
  }
  return true;
}

TEST(ParseEdgeList, BasicEdges) {
  const auto g = ParseEdgeList("0 1\n1 2\n2 0\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 3);
  EXPECT_EQ(g->NumEdges(), 3);
}

TEST(ParseEdgeList, CommentsAndBlankLines) {
  const auto g = ParseEdgeList(
      "# SNAP-style comment\n"
      "% matrix-market-style comment\n"
      "\n"
      "0 1\n"
      "   \n"
      "1 2\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 2);
}

TEST(ParseEdgeList, DirectionsAndDuplicatesCollapse) {
  const auto g = ParseEdgeList("0 1\n1 0\n0 1\n1 1\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1);  // self-loop dropped too
}

TEST(ParseEdgeList, TabsAndExtraWhitespace) {
  const auto g = ParseEdgeList("0\t1\n  2   3  \n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 2);
  EXPECT_EQ(g->NumVertices(), 4);
}

TEST(ParseEdgeList, MalformedLineIsError) {
  const auto g = ParseEdgeList("0 1\nnot an edge\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

TEST(ParseEdgeList, MissingSecondEndpointIsError) {
  const auto g = ParseEdgeList("5\n");
  ASSERT_FALSE(g.ok());
}

TEST(ParseEdgeList, NegativeIdIsError) {
  const auto g = ParseEdgeList("0 -2\n");
  ASSERT_FALSE(g.ok());
}

TEST(ParseEdgeList, EmptyInputIsEmptyGraph) {
  const auto g = ParseEdgeList("");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 0);
}

TEST(ReadEdgeList, MissingFileIsNotFound) {
  const auto g = ReadEdgeList("/nonexistent/path/graph.txt");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kNotFound);
}

TEST(EdgeListRoundTrip, WriteThenReadPreservesGraph) {
  const Graph original = ErdosRenyiGnm(40, 120, 3);
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteEdgeList(original, path).ok());
  const auto reread = ReadEdgeList(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->NumEdges(), original.NumEdges());
  bool same = true;
  original.ForEachEdge([&](VertexId u, VertexId v) {
    if (!reread->HasEdge(u, v)) same = false;
  });
  EXPECT_TRUE(same);
  std::remove(path.c_str());
}

TEST(ReadMatrixMarket, PatternCoordinateFile) {
  const std::string path = TempPath("graph.mtx");
  WriteFile(path,
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% a comment\n"
            "4 4 3\n"
            "1 2\n"
            "2 3\n"
            "3 4\n");
  const auto g = ReadMatrixMarket(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumVertices(), 4);  // 1-based ids 1..4 -> 0..3
  EXPECT_EQ(g->NumEdges(), 3);
  EXPECT_TRUE(g->HasEdge(0, 1));
  std::remove(path.c_str());
}

TEST(ReadMatrixMarket, RejectsMissingHeader) {
  const std::string path = TempPath("noheader.mtx");
  WriteFile(path, "4 4 1\n1 2\n");
  const auto g = ReadMatrixMarket(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ReadMatrixMarket, RejectsZeroIndex) {
  const std::string path = TempPath("zeroidx.mtx");
  WriteFile(path,
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 1\n"
            "0 1\n");
  const auto g = ReadMatrixMarket(path);
  ASSERT_FALSE(g.ok());
  std::remove(path.c_str());
}

TEST(ReadMatrixMarket, ZeroIndexNamesItsFileLine) {
  const std::string path = TempPath("zeroidx_line.mtx");
  WriteFile(path,
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% comment\n"
            "3 3 2\n"
            "1 2\n"
            "2 0\n");
  const auto g = ReadMatrixMarket(path);
  std::remove(path.c_str());
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.status().message(), "MatrixMarket index 0 at line 5");
}

TEST(ReadMatrixMarket, RealValuesAreIgnored) {
  const std::string path = TempPath("real.mtx");
  WriteFile(path,
            "%%MatrixMarket matrix coordinate real symmetric\r\n"
            "3 3 3\r\n"
            "1 2 0.5\r\n"
            "2 3 -1.25e3\r\n"
            "3 1 7");
  const auto g = ReadMatrixMarket(path);
  std::remove(path.c_str());
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumVertices(), 3);
  EXPECT_EQ(g->NumEdges(), 3);
}

TEST(ReadMatrixMarket, EmptyFileIsMissingHeader) {
  const std::string path = TempPath("empty.mtx");
  WriteFile(path, "");
  const auto g = ReadMatrixMarket(path);
  std::remove(path.c_str());
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(g.status().message().find("header"), std::string::npos);
}

TEST(ReadMatrixMarket, IdOverLimitIsOutOfRange) {
  const std::string path = TempPath("big.mtx");
  WriteFile(path,
            "%%MatrixMarket matrix coordinate pattern general\n"
            "1 1 1\n"
            "2147483648 1\n");
  const auto g = ReadMatrixMarket(path);
  std::remove(path.c_str());
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.status().message(), "vertex id exceeds 2^31-2 at line 3");
}

TEST(ReadMatrixMarket, RejectsNonCoordinate) {
  const std::string path = TempPath("dense.mtx");
  WriteFile(path, "%%MatrixMarket matrix array real general\n1 1\n0.5\n");
  const auto g = ReadMatrixMarket(path);
  ASSERT_FALSE(g.ok());
  std::remove(path.c_str());
}

// A malformed line placed at every offset around the first chunk boundary
// (ending just before it, cut by it, starting on it or just after it)
// reports its own line number and text.
TEST(ParseEdgeList, MalformedLineAtChunkBoundaryReportsExactLine) {
  const std::string bad = "17 x9";
  for (std::size_t bad_at = kEdgeListChunkBytes - 8;
       bad_at <= kEdgeListChunkBytes + 1; ++bad_at) {
    std::string text;
    VertexId next = 0;
    const std::int64_t good = AppendPathLinesTo(&text, bad_at, &next);
    text += bad + "\n";
    AppendPathLinesTo(&text, text.size() + 4096, &next);
    const auto g = ParseEdgeList(text);
    ASSERT_FALSE(g.ok()) << "bad line at byte " << bad_at;
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(g.status().message(), "malformed edge at line " +
                                        std::to_string(good + 1) + ": '" +
                                        bad + "'")
        << "bad line at byte " << bad_at;
  }
}

// Valid lines cut by the chunk boundary at every offset parse exactly.
TEST(ParseEdgeList, LinesCutByChunkBoundaryParseExactly) {
  for (std::size_t pad = 2; pad < 16; ++pad) {
    std::string text = "#";
    text.append(pad - 2, 'p').append("\n");
    VertexId next = 0;
    AppendPathLinesTo(&text, kEdgeListChunkBytes + 64, &next);
    const auto g = ParseEdgeList(text);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_TRUE(IsPath(*g, next)) << "padding " << pad;
  }
}

TEST(ReadEdgeList, MalformedLineJustPastFirstChunkInLargeFile) {
  std::string text;
  VertexId next = 0;
  const std::int64_t good =
      AppendPathLinesTo(&text, kEdgeListChunkBytes + 3, &next);
  text += "42 -7 trailing\n";
  AppendPathLinesTo(&text, 2 * kEdgeListChunkBytes + 4096, &next);
  const std::string path = TempPath("chunk_boundary.txt");
  WriteFile(path, text);
  const auto g = ReadEdgeList(path);
  std::remove(path.c_str());
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.status().message(), "malformed edge at line " +
                                      std::to_string(good + 1) +
                                      ": '42 -7 trailing'");
}

TEST(ReadEdgeList, FileOverTwoChunksParsesExactly) {
  std::string text;
  VertexId next = 0;
  AppendPathLinesTo(&text, 2 * kEdgeListChunkBytes + 777, &next);
  const std::string path = TempPath("large.txt");
  WriteFile(path, text);
  const auto g = ReadEdgeList(path);
  std::remove(path.c_str());
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(IsPath(*g, next));
}

// Lines longer than a chunk force the buffer to grow; a 3-chunk comment and
// an edge line padded past one chunk both parse, as do the lines around
// them.
TEST(ParseEdgeList, LinesLongerThanAChunkParse) {
  std::string text = "0 1\n";
  text.append("#").append(3 * kEdgeListChunkBytes, 'c').append("\n");
  text += "5 6" + std::string(kEdgeListChunkBytes + 5, ' ') + "tail\n";
  text += "1 2\n";
  const auto g = ParseEdgeList(text);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumEdges(), 3);
  EXPECT_TRUE(g->HasEdge(5, 6));
  EXPECT_TRUE(g->HasEdge(1, 2));
}

TEST(ParseEdgeList, MalformedLineAfterALongLineKeepsItsNumber) {
  std::string text = "0 1\n" + std::string(2 * kEdgeListChunkBytes, ' ') +
                     "\n2 3\nbad\n";
  const auto g = ParseEdgeList(text);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().message(), "malformed edge at line 4: 'bad'");
}

TEST(ParseEdgeList, CrlfLineEndings) {
  const auto g = ParseEdgeList("# comment\r\n0 1\r\n\r\n1 2\r\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumVertices(), 3);
  EXPECT_EQ(g->NumEdges(), 2);
}

TEST(ParseEdgeList, MissingFinalNewline) {
  const auto g = ParseEdgeList("0 1\n1 2");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumVertices(), 3);
  EXPECT_EQ(g->NumEdges(), 2);
  const auto bad = ParseEdgeList("0 1\n1 x");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "malformed edge at line 2: '1 x'");
}

TEST(ParseEdgeList, TrailingTokensIgnored) {
  const auto g = ParseEdgeList("0 1 0.75 extra\n1 2\t9\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NumEdges(), 2);
}

TEST(ParseEdgeList, IdOverLimitIsOutOfRangeAtItsLine) {
  const auto g = ParseEdgeList("0 1\n# c\n2147483647 0\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.status().message(), "vertex id exceeds 2^31-2 at line 3");
  const auto second = ParseEdgeList("3 2147483647\n");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(second.status().message().find("line 1"), std::string::npos);
}

TEST(ReadEdgeList, DirectoryIsAnError) {
  const std::string dir = TempPath("edge_list_dir");
  std::filesystem::create_directories(dir);
  const auto g = ReadEdgeList(dir);
  std::filesystem::remove(dir);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find(dir), std::string::npos)
      << g.status().ToString();
}

// WriteEdgeList then ReadEdgeList reproduces the CSR byte for byte (up to
// trailing isolated vertices, which an edge list cannot name).
class EdgeListZooTest : public ::testing::TestWithParam<GraphCase> {};

TEST_P(EdgeListZooTest, WriteReadRoundTripsCsr) {
  const Graph g = GetParam().make();
  const std::string path = TempPath("zoo_roundtrip_" + GetParam().name);
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  const auto reread = ReadEdgeList(path);
  std::remove(path.c_str());
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  VertexId used = g.NumVertices();
  while (used > 0 && g.Degree(used - 1) == 0) --used;
  ASSERT_EQ(reread->NumVertices(), used);
  std::vector<std::int64_t> expected = CsrOffsets(g);
  expected.resize(static_cast<std::size_t>(used) + 1);
  EXPECT_EQ(CsrOffsets(*reread), expected);
  EXPECT_EQ(reread->AdjArray(), g.AdjArray());
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, EdgeListZooTest, ::testing::ValuesIn(GraphZoo()),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      return info.param.name;
    });

TEST(WriteEdgeList, WritesOneCanonicalLinePerEdge) {
  const Graph g =
      GraphFromEdges(0, {{2, 0}, {1, 0}, {99999, 1000000}, {2, 1}});
  const std::string path = TempPath("canonical.txt");
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  EXPECT_EQ(ReadFile(path), "0 1\n0 2\n1 2\n99999 1000000\n");
  std::remove(path.c_str());
}

TEST(WriteEdgeList, OutputLargerThanAChunk) {
  const Graph g = ErdosRenyiGnm(20000, 150000, 5);
  const std::string path = TempPath("large_out.txt");
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  std::string expected;
  g.ForEachEdge([&](VertexId u, VertexId v) {
    expected += std::to_string(u) + " " + std::to_string(v) + "\n";
  });
  ASSERT_GT(expected.size(), kEdgeListChunkBytes);
  EXPECT_EQ(ReadFile(path), expected);
  std::remove(path.c_str());
}

// Buffered bytes reach the device only at close: a full device must fail
// the call, not just a write.
TEST(WriteEdgeList, FullDeviceIsError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(WriteEdgeList(Path(3), "/dev/full").ok());
  EXPECT_FALSE(
      WriteEdgeList(ErdosRenyiGnm(20000, 150000, 5), "/dev/full").ok());
}

TEST(WriteEdgeList, UnwritablePathIsError) {
  const Graph g = Path(3);
  EXPECT_FALSE(WriteEdgeList(g, "/nonexistent/dir/out.txt").ok());
}

// ---------------------------------------------------------------------------
// The reader's lanes. Inputs span several batches (one buffer of
// kEdgeListChunkBytes, split into one slice per hardware lane), and bad
// lines sit where slices and batches start, so each check crosses the
// parallel split and the in-order merge.

int Lanes() { return ParallelConfig::Auto().ResolvedThreads(); }

// The number of the line that starts at byte `at` of `text`.
std::int64_t LineAt(const std::string& text, std::size_t at) {
  return std::count(text.begin(),
                    text.begin() + static_cast<std::ptrdiff_t>(at), '\n') +
         1;
}

// Both readers of an edge list: from memory and from a file.
void ExpectBothRead(const std::string& text, const Graph& expected,
                    const std::string& name) {
  const std::string path = TempPath("lanes_" + name + ".txt");
  WriteFile(path, text);
  const auto from_file = ReadEdgeList(path);
  std::remove(path.c_str());
  const auto from_text = ParseEdgeList(text);
  for (const auto* got : {&from_file, &from_text}) {
    ASSERT_TRUE(got->ok()) << name << ": " << got->status().ToString();
    EXPECT_EQ(CsrOffsets(**got), CsrOffsets(expected)) << name;
    EXPECT_EQ((*got)->AdjArray(), expected.AdjArray()) << name;
  }
}

void ExpectBothFail(const std::string& text, StatusCode code,
                    const std::string& message, const std::string& name) {
  const std::string path = TempPath("lanes_" + name + ".txt");
  WriteFile(path, text);
  const auto from_file = ReadEdgeList(path);
  std::remove(path.c_str());
  const auto from_text = ParseEdgeList(text);
  for (const auto* got : {&from_file, &from_text}) {
    ASSERT_FALSE(got->ok()) << name;
    EXPECT_EQ(got->status().code(), code) << name;
    EXPECT_EQ(got->status().message(), message) << name;
  }
}

// Shuffled lines (so unsorted lists), duplicates in both orientations,
// self-loops, '#' and '%' comments, blank lines, CRLF, trailing tokens and
// a missing final newline, over more than two batches: the graph equals
// GraphBuilder's over the same pairs.
TEST(EdgeListLanes, NoisyInputOverManyBatchesMatchesGraphBuilder) {
  std::mt19937_64 rng(2024);
  const auto below = [&rng](std::uint64_t bound) {
    return static_cast<VertexId>(rng() % bound);
  };
  std::vector<std::pair<VertexId, VertexId>> seen;
  GraphBuilder builder;
  std::string text;
  const std::size_t target = 2 * kEdgeListChunkBytes + kEdgeListChunkBytes / 3;
  while (text.size() < target) {
    switch (below(16)) {
      case 0:
        text += "# comment " + std::to_string(below(1000)) + "\n";
        continue;
      case 1:
        text += "% comment\r\n";
        continue;
      case 2:
        text += below(2) == 0 ? "\n" : " \t \r\n";
        continue;
      default:
        break;
    }
    VertexId u = below(300000);
    VertexId v = below(300000);
    const VertexId kind = below(8);
    if (kind == 0) v = u;  // self-loop
    if (kind == 1 && !seen.empty()) {  // a duplicate, either orientation
      std::tie(u, v) = seen[below(seen.size())];
      if (below(2) == 0) std::swap(u, v);
    }
    seen.emplace_back(u, v);
    builder.AddEdge(u, v);
    text += std::to_string(u) + (below(2) == 0 ? " " : "\t") +
            std::to_string(v);
    if (below(6) == 0) text += " 0.25";
    text += below(5) == 0 ? "\r\n" : "\n";
  }
  text += "7 9";
  builder.AddEdge(7, 9);
  ExpectBothRead(text, builder.Build(), "noisy");
}

TEST(EdgeListLanes, MatrixMarketOverManyBatchesMatchesGraphBuilder) {
  std::string text =
      "%%MatrixMarket matrix coordinate pattern symmetric\n% c\n\n9 9 9\n";
  GraphBuilder builder;
  std::mt19937_64 rng(7);
  const std::size_t target = kEdgeListChunkBytes + 3 * kEdgeListChunkBytes / 2;
  while (text.size() < target) {
    const VertexId u = static_cast<VertexId>(1 + rng() % 100000);
    const VertexId v = static_cast<VertexId>(1 + rng() % 100000);
    text += std::to_string(u) + " " + std::to_string(v) + " 1\n";
    builder.AddEdge(u - 1, v - 1);
  }
  const std::string path = TempPath("lanes_mm.mtx");
  WriteFile(path, text);
  const auto g = ReadMatrixMarket(path);
  std::remove(path.c_str());
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Graph expected = builder.Build();
  EXPECT_EQ(CsrOffsets(*g), CsrOffsets(expected));
  EXPECT_EQ(g->AdjArray(), expected.AdjArray());
}

// A malformed line at the first byte of every slice of the first two
// batches. Each batch ends exactly on a batch boundary, so slice k of
// batch b starts at (b + k / L) * kEdgeListChunkBytes.
TEST(EdgeListLanes, BadLineAtTheFirstByteOfEachSlice) {
  const std::size_t lanes = static_cast<std::size_t>(Lanes());
  for (std::size_t batch = 0; batch < 2; ++batch) {
    for (std::size_t k = 0; k < lanes; ++k) {
      const std::size_t at = batch * kEdgeListChunkBytes + k * kEdgeListChunkBytes / lanes;
      std::string text;
      VertexId next = 0;
      if (at > 0) AppendPathLinesTo(&text, at, &next);
      ASSERT_EQ(text.size(), at);
      text += "12 ab\n";
      AppendPathLinesTo(&text, (batch + 1) * kEdgeListChunkBytes, &next);
      AppendPathLinesTo(&text, text.size() + 4096, &next);
      ExpectBothFail(text, StatusCode::kInvalidArgument,
                     "malformed edge at line " +
                         std::to_string(LineAt(text, at)) + ": '12 ab'",
                     "slice_" + std::to_string(batch) + "_" +
                         std::to_string(k));
    }
  }
}

// Bad lines in two slices, and in two batches: the earlier one in the file
// is reported, whatever its kind.
TEST(EdgeListLanes, EarliestOfTwoBadLinesWins) {
  const std::size_t lanes = static_cast<std::size_t>(Lanes());
  const std::size_t first_at = kEdgeListChunkBytes / lanes / 2;
  // The second bad line starts the last slice of the first batch, or with
  // one lane the second batch.
  const std::size_t second_at =
      lanes > 1 ? (lanes - 1) * kEdgeListChunkBytes / lanes : kEdgeListChunkBytes;
  std::string text;
  VertexId next = 0;
  AppendPathLinesTo(&text, first_at, &next);
  text += "4 2147483647\n";
  AppendPathLinesTo(&text, second_at, &next);
  text += "oops\n";
  AppendPathLinesTo(&text, 2 * kEdgeListChunkBytes + 4096, &next);
  ExpectBothFail(text, StatusCode::kOutOfRange,
                 "vertex id exceeds 2^31-2 at line " +
                     std::to_string(LineAt(text, first_at)),
                 "two_bad");
}

TEST(EdgeListLanes, IdOverLimitInTheLastSlice) {
  const std::size_t at = kEdgeListChunkBytes - kEdgeListChunkBytes / Lanes() / 4;
  std::string text;
  VertexId next = 0;
  AppendPathLinesTo(&text, at, &next);
  text += "2147483647 3\n";
  AppendPathLinesTo(&text, kEdgeListChunkBytes + 4096, &next);
  ExpectBothFail(text, StatusCode::kOutOfRange,
                 "vertex id exceeds 2^31-2 at line " +
                     std::to_string(LineAt(text, at)),
                 "last_slice");
}

// Line numbers count from the header, which the reader consumes before the
// parallel part, together with the comments and the size line.
TEST(EdgeListLanes, MatrixMarketIndexZeroPastTheFirstBatch) {
  std::string text =
      "%%MatrixMarket matrix coordinate pattern general\n% c\n5 5 5\n";
  VertexId next = 1;
  AppendPathLinesTo(&text, kEdgeListChunkBytes + 5000, &next);
  const std::size_t at = text.size();
  text += "0 3\n";
  AppendPathLinesTo(&text, text.size() + 4096, &next);
  const std::string path = TempPath("lanes_mm_zero.mtx");
  WriteFile(path, text);
  const auto g = ReadMatrixMarket(path);
  std::remove(path.c_str());
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.status().message(), "MatrixMarket index 0 at line " +
                                      std::to_string(LineAt(text, at)));
}

}  // namespace
}  // namespace nucleus
