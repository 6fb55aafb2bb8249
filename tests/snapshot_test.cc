// Snapshot round trips through the written format (v2) and the v1 reader,
// whose inputs are the checked-in fixtures of tests/data/v1.
#include "nucleus/store/snapshot.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/core/hierarchy_index.h"
#include "nucleus/store/snapshot_v2.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::ExpectHierarchyEqual;
using testing_util::GraphZoo;
using testing_util::TempPath;

SnapshotData BuildSnapshot(const Graph& g, Family family, bool with_index) {
  DecomposeOptions options;
  options.family = family;
  options.algorithm = Algorithm::kFnd;
  const DecompositionResult result = Decompose(g, options);
  return MakeSnapshot(g, options, result, with_index);
}

// ---------------------------------------------------------------------------
// Lossless round-trip across the zoo for all three spaces.

class SnapshotZooTest
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(SnapshotZooTest, RoundTripsLosslesslyAllFamilies) {
  const Graph g = GetParam().make();
  const std::string path = TempPath("zoo_" + GetParam().name + ".nucsnap");
  for (Family family :
       {Family::kCore12, Family::kTruss23, Family::kNucleus34}) {
    const SnapshotData original = BuildSnapshot(g, family, true);
    ASSERT_TRUE(SaveSnapshotV2(original, path).ok());

    StatusOr<SnapshotData> loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->meta.family, family);
    EXPECT_EQ(loaded->meta.algorithm, Algorithm::kFnd);
    EXPECT_EQ(loaded->meta.num_vertices, g.NumVertices());
    EXPECT_EQ(loaded->meta.num_edges, g.NumEdges());
    EXPECT_EQ(loaded->meta.graph_fingerprint, GraphFingerprint(g));
    EXPECT_EQ(loaded->meta.num_cliques, original.meta.num_cliques);
    EXPECT_EQ(loaded->meta.max_lambda, original.meta.max_lambda);

    EXPECT_EQ(loaded->peel.lambda, original.peel.lambda);
    EXPECT_EQ(loaded->peel.max_lambda, original.peel.max_lambda);
    ExpectHierarchyEqual(original.hierarchy, loaded->hierarchy);
    // The loaded hierarchy passes the full structural invariant check.
    loaded->hierarchy.Validate(loaded->peel.lambda);

    ASSERT_TRUE(loaded->has_index);
    EXPECT_EQ(loaded->index_tables.levels, original.index_tables.levels);
    EXPECT_EQ(loaded->index_tables.depth, original.index_tables.depth);
    EXPECT_EQ(loaded->index_tables.up, original.index_tables.up);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Zoo, SnapshotZooTest, ::testing::ValuesIn(GraphZoo()),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Details and probes.

TEST(Snapshot, RoundTripsWithoutIndexTables) {
  // v1 could omit the jump tables; its reader must say so, and still
  // rebuild the exact hierarchy, for every family.
  const Graph g = testing_util::PaperFigure2Graph();
  for (const auto& [family, name] :
       {std::pair{Family::kCore12, "core"},
        std::pair{Family::kTruss23, "truss"},
        std::pair{Family::kNucleus34, "34"}}) {
    SCOPED_TRACE(name);
    const SnapshotData original = BuildSnapshot(g, family, false);
    StatusOr<SnapshotData> loaded = LoadSnapshot(testing_util::V1FixturePath(
        std::string("figure2_") + name + "_noindex"));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_FALSE(loaded->has_index);
    EXPECT_TRUE(loaded->index_tables.up.empty());
    EXPECT_EQ(loaded->meta.family, family);
    EXPECT_EQ(loaded->peel.lambda, original.peel.lambda);
    ExpectHierarchyEqual(original.hierarchy, loaded->hierarchy);
  }
}

TEST(Snapshot, IndexTablesMatchFreshBuild) {
  const Graph g = ErdosRenyiGnp(60, 0.10, 11);
  const SnapshotData original = BuildSnapshot(g, Family::kCore12, true);
  const std::string path = TempPath("tables.nucsnap");
  ASSERT_TRUE(SaveSnapshotV2(original, path).ok());
  StatusOr<SnapshotData> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const HierarchyIndexTables rebuilt =
      HierarchyIndex(loaded->hierarchy).Tables();
  EXPECT_EQ(loaded->index_tables.levels, rebuilt.levels);
  EXPECT_EQ(loaded->index_tables.depth, rebuilt.depth);
  EXPECT_EQ(loaded->index_tables.up, rebuilt.up);
  std::remove(path.c_str());
}

TEST(Snapshot, MetaProbeMatchesFullLoad) {
  const Graph g = testing_util::BowTieGraph();
  const SnapshotData original = BuildSnapshot(g, Family::kNucleus34, true);
  const std::string path = TempPath("probe.nucsnap");
  ASSERT_TRUE(SaveSnapshotV2(original, path).ok());
  StatusOr<SnapshotMeta> meta = ReadSnapshotMeta(path);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->family, Family::kNucleus34);
  EXPECT_EQ(meta->num_cliques, original.meta.num_cliques);
  EXPECT_EQ(meta->graph_fingerprint, GraphFingerprint(g));
  std::remove(path.c_str());
}

TEST(Snapshot, GraphFingerprintDiscriminates) {
  const std::uint64_t a = GraphFingerprint(Complete(6));
  const std::uint64_t b = GraphFingerprint(Complete(7));
  const std::uint64_t c = GraphFingerprint(Cycle(6));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, GraphFingerprint(Complete(6)));
}

TEST(Snapshot, SaveFailsOnUnwritablePath) {
  const SnapshotData snapshot =
      BuildSnapshot(Path(4), Family::kCore12, false);
  const Status s = SaveSnapshotV2(snapshot, "/nonexistent_dir/x.nucsnap");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Negative inputs: every corruption mode surfaces as a Status.

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Rewrites the footer checksum to match the (possibly patched) contents,
/// so semantic validation — not the checksum — is what must catch the
/// corruption.
void Rechecksum(std::string* bytes) {
  std::uint64_t hash = kFnvOffset;
  for (std::size_t i = 0; i + 8 < bytes->size(); ++i) {
    hash ^= static_cast<unsigned char>((*bytes)[i]);
    hash *= kFnvPrime;
  }
  bytes->replace(bytes->size() - 8, 8,
                 reinterpret_cast<const char*>(&hash), 8);
}

/// A scratch copy of the v1 Figure 2 core fixture, free to corrupt.
std::string WriteFigure2Snapshot(const std::string& name, bool with_index) {
  return testing_util::CopyV1Fixture(
      with_index ? "figure2_core_index" : "figure2_core_noindex", name);
}

TEST(SnapshotNegative, MissingFileIsNotFound) {
  auto result = LoadSnapshot(TempPath("does_not_exist.nucsnap"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotNegative, RejectsBadMagic) {
  const std::string path = TempPath("bad_magic.nucsnap");
  WriteFileBytes(path, "NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
                       "xxxxxxxxxxxxxxxxxxxxxxxx");
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotNegative, RejectsTruncatedHeader) {
  const std::string path = TempPath("short_header.nucsnap");
  WriteFileBytes(path, "NUCS");
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(SnapshotNegative, RejectsUnsupportedVersion) {
  const std::string path = WriteFigure2Snapshot("version.nucsnap", true);
  std::string bytes = ReadFileBytes(path);
  const std::uint32_t bogus = 99;
  bytes.replace(8, 4, reinterpret_cast<const char*>(&bogus), 4);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotNegative, RejectsUnknownFlags) {
  const std::string path = WriteFigure2Snapshot("flags.nucsnap", true);
  std::string bytes = ReadFileBytes(path);
  const std::uint32_t bogus = 0x10;
  bytes.replace(12, 4, reinterpret_cast<const char*>(&bogus), 4);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotNegative, RejectsTruncatedPayload) {
  const std::string path = WriteFigure2Snapshot("truncated.nucsnap", true);
  std::string bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() - 12);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("size mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotNegative, RejectsTrailingGarbage) {
  const std::string path = WriteFigure2Snapshot("trailing.nucsnap", true);
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << "garbage";
  out.close();
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotNegative, RejectsAbsurdCountsWithoutAllocating) {
  const std::string path = WriteFigure2Snapshot("absurd.nucsnap", true);
  std::string bytes = ReadFileBytes(path);
  // num_cliques (bytes 44..51) claims 2^40: the size check fires first.
  const std::int64_t bogus = std::int64_t{1} << 40;
  bytes.replace(44, 8, reinterpret_cast<const char*>(&bogus), 8);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("size mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotNegative, RejectsOverflowingCountsWithoutAllocating) {
  // num_cliques = 2^62 would wrap the int64 size arithmetic (4 * 2^62 == 0
  // mod 2^64); the count bound must reject it before any allocation or
  // multiplication.
  const std::string path = WriteFigure2Snapshot("overflow.nucsnap", true);
  std::string bytes = ReadFileBytes(path);
  const std::int64_t bogus = std::int64_t{1} << 62;
  bytes.replace(44, 8, reinterpret_cast<const char*>(&bogus), 8);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotNegative, RejectsFlippedPayloadByte) {
  const std::string path = WriteFigure2Snapshot("bitflip.nucsnap", true);
  std::string bytes = ReadFileBytes(path);
  bytes[70] = static_cast<char>(bytes[70] ^ 0x40);  // inside the payload
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotNegative, RejectsSemanticCorruptionBehindValidChecksum) {
  // Figure 2 core snapshot: 10 cliques then 4 nodes. Break the parent
  // order of node 1 (point it at itself) and re-checksum, so only the
  // structural validation can catch it.
  const std::string path = WriteFigure2Snapshot("semantic.nucsnap", false);
  std::string bytes = ReadFileBytes(path);
  const std::size_t node_parent_off = 64 + 10 * 4 + 4 * 4;
  const std::int32_t bogus = 1;
  bytes.replace(node_parent_off + 4, 4,
                reinterpret_cast<const char*>(&bogus), 4);
  Rechecksum(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("parent order"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotNegative, RejectsLambdaAssignmentMismatch) {
  // Flip one per-clique lambda (keeping the checksum valid): the
  // lambda / node consistency check must fire.
  const std::string path = WriteFigure2Snapshot("lambda.nucsnap", false);
  std::string bytes = ReadFileBytes(path);
  const std::int32_t bogus = 1;  // figure2 lambdas are 2 or 3
  bytes.replace(64, 4, reinterpret_cast<const char*>(&bogus), 4);
  Rechecksum(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotNegative, RejectsCorruptJumpTable) {
  // Point up[0][1] somewhere wrong and re-checksum: the jump-table
  // validation (up[0] must equal the parent array) catches it.
  const std::string path = WriteFigure2Snapshot("jump.nucsnap", true);
  const SnapshotData reference = BuildSnapshot(
      testing_util::PaperFigure2Graph(), Family::kCore12, true);
  const std::int64_t num_cliques = reference.meta.num_cliques;
  const std::int64_t num_nodes = reference.hierarchy.NumNodes();
  std::string bytes = ReadFileBytes(path);
  const std::size_t up_off =
      64 + (2 * num_cliques + 3 * num_nodes) * 4;  // after depth array
  const std::int32_t bogus = 2;
  bytes.replace(up_off + 4, 4, reinterpret_cast<const char*>(&bogus), 4);
  Rechecksum(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("jump table"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nucleus
