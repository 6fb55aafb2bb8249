#include "nucleus/em/adjacency_file.h"

#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/em/semi_external_core.h"
#include "nucleus/em/semi_external_truss.h"
#include "nucleus/graph/binary_io.h"
#include "nucleus/graph/generators.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::TempPath;

// Writes g, opens it with the given block size, and checks both scan
// flavors reproduce the in-memory structure exactly.
void CheckScans(const Graph& g, std::size_t block_bytes) {
  const std::string path = TempPath("scan.nucgraph");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  auto file = AdjacencyFile::Open(path, block_bytes);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  ASSERT_EQ(file->NumVertices(), g.NumVertices());
  ASSERT_EQ(file->NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(file->Degree(v), g.Degree(v));
  }

  VertexId expected_next = 0;
  Status s = file->ScanVertices(
      [&](VertexId v, std::span<const VertexId> neighbors) {
        ASSERT_EQ(v, expected_next++);
        const auto want = g.Neighbors(v);
        ASSERT_EQ(neighbors.size(), want.size()) << "vertex " << v;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(neighbors[i], want[i]) << "vertex " << v << " slot " << i;
        }
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(expected_next, g.NumVertices());

  std::vector<std::pair<VertexId, VertexId>> got;
  ASSERT_TRUE(
      file->ScanEdges([&](VertexId u, VertexId v) { got.emplace_back(u, v); })
          .ok());
  std::vector<std::pair<VertexId, VertexId>> want;
  g.ForEachEdge([&](VertexId u, VertexId v) { want.emplace_back(u, v); });
  EXPECT_EQ(got, want);
}

TEST(AdjacencyFile, ScansMatchInMemoryAcrossZoo) {
  for (const auto& c : testing_util::GraphZoo()) {
    SCOPED_TRACE(c.name);
    CheckScans(c.make(), /*block_bytes=*/1 << 16);
  }
}

TEST(AdjacencyFile, TinyBlocksForceBoundaryHandling) {
  // 64-byte blocks hold 16 ids; every multi-edge list straddles blocks.
  CheckScans(Complete(9), 64);
  CheckScans(ErdosRenyiGnp(50, 0.2, 5), 64);
}

TEST(AdjacencyFile, ListLongerThanBlockUsesScratch) {
  // Star hub has degree 40; with 16-int blocks its list cannot fit and the
  // scratch-assembly path must produce it intact.
  CheckScans(Star(40), 64);
}

TEST(AdjacencyFile, MinimumBlockSizeIsClamped) { CheckScans(Wheel(12), 1); }

TEST(AdjacencyFile, StatsCountScansAndBytes) {
  const std::string path = TempPath("stats.nucgraph");
  Graph g = Complete(6);
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  auto file = AdjacencyFile::Open(path);
  ASSERT_TRUE(file.ok());
  const std::int64_t offsets_bytes = file->stats().bytes_read;
  EXPECT_EQ(offsets_bytes, 7 * 8);  // |V| + 1 offsets
  ASSERT_TRUE(file->ScanVertices([](VertexId, std::span<const VertexId>) {})
                  .ok());
  EXPECT_EQ(file->stats().scans, 1);
  EXPECT_EQ(file->stats().bytes_read, offsets_bytes + 30 * 4);
  ASSERT_TRUE(file->ScanEdges([](VertexId, VertexId) {}).ok());
  EXPECT_EQ(file->stats().scans, 2);
  file->ResetStats();
  EXPECT_EQ(file->stats().scans, 0);
  EXPECT_EQ(file->stats().bytes_read, 0);
}

TEST(AdjacencyFile, RepeatedScansAreRestartable) {
  const std::string path = TempPath("repeat.nucgraph");
  Graph g = Grid2D(4, 4);
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  auto file = AdjacencyFile::Open(path, 64);
  ASSERT_TRUE(file.ok());
  for (int round = 0; round < 3; ++round) {
    std::int64_t edges = 0;
    ASSERT_TRUE(
        file->ScanEdges([&](VertexId, VertexId) { ++edges; }).ok());
    EXPECT_EQ(edges, g.NumEdges()) << "round " << round;
  }
}

TEST(AdjacencyFile, MissingFileIsNotFound) {
  auto file = AdjacencyFile::Open(TempPath("missing.nucgraph"));
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kNotFound);
}

TEST(AdjacencyFile, TruncatedPayloadSurfacesDuringScan) {
  const std::string path = TempPath("chopped.nucgraph");
  ASSERT_TRUE(WriteBinaryGraph(Complete(10), path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 12);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();

  auto file = AdjacencyFile::Open(path);
  ASSERT_TRUE(file.ok());  // header + offsets intact
  Status s =
      file->ScanVertices([](VertexId, std::span<const VertexId>) {});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

// --- Corrupt neighbour lists ------------------------------------------------
// Path(4) stores the lists 0:[1] 1:[0 2] 2:[1 3] 3:[2], so adjacency entries
// 1 and 2 are vertex 1's list. Each case patches them so the file breaks one
// rule the scan checks; every scan and both semi-external builds must then
// return InvalidArgument, without crashing and without leaving spill files.

struct CorruptCase {
  std::string name;
  std::vector<std::pair<std::int64_t, VertexId>> patches;  // (entry, id)
  std::string message;  // part of the expected Status text
};

void PrintTo(const CorruptCase& c, std::ostream* os) { *os << c.name; }

class CorruptAdjacency : public ::testing::TestWithParam<CorruptCase> {};

TEST_P(CorruptAdjacency, EveryScanAndBuildReturnsInvalidArgument) {
  const std::string path = TempPath("corrupt_" + GetParam().name + ".nucgraph");
  ASSERT_TRUE(WriteBinaryGraph(Path(4), path).ok());
  for (const auto& [entry, id] : GetParam().patches) {
    testing_util::PatchBinaryAdjacency(path, 4, entry, id);
  }
  const std::string dir = TempPath("corrupt_scratch");
  std::filesystem::create_directory(dir);
  auto expect_invalid = [&](const Status& s, const char* what) {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << what << ": "
                                                      << s.ToString();
    EXPECT_NE(s.ToString().find(GetParam().message), std::string::npos)
        << what << ": " << s.ToString();
    EXPECT_NE(s.ToString().find(path), std::string::npos) << what;
  };

  auto file = AdjacencyFile::Open(path, 64);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  expect_invalid(file->ScanEdges([](VertexId, VertexId) {}), "ScanEdges");
  expect_invalid(
      file->ScanVertices([](VertexId, std::span<const VertexId>) {}),
      "ScanVertices");
  expect_invalid(SemiExternalCoreDecomposition(*file, dir).status(), "core");
  expect_invalid(SemiExternalTrussDecomposition(*file, dir).status(),
                 "truss");
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "leftover scratch in " << dir;
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, CorruptAdjacency,
    ::testing::Values(
        CorruptCase{"id_out_of_range", {{2, 0x7fff0000}},
                    "vertex 1: neighbour 2147418112 outside [0, 4)"},
        CorruptCase{"negative_id", {{1, -5}},
                    "vertex 1: neighbour -5 outside [0, 4)"},
        CorruptCase{"unsorted_list", {{1, 2}, {2, 0}},
                    "vertex 1: neighbour list not strictly increasing"},
        CorruptCase{"self_loop", {{2, 1}}, "vertex 1: self-loop"},
        // 1:[2 3] keeps every list valid on its own, but the file now has
        // four entries u < v against two u > v.
        CorruptCase{"asymmetric", {{1, 2}, {2, 3}},
                    "asymmetric, 4 entries u < v against 2 entries u > v"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace nucleus
