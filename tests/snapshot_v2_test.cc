// .nucsnap v2: round trips, upgrades of the v1 fixtures (tests/data/v1),
// the version probe, and a corruption sweep mirroring snapshot_test.cc's
// negative catalogue — every byte-level and structural corruption mode
// must surface as a Status, never as UB, in both memory modes: an owned
// open rejects the file, a mapped open rejects it at open or on first use.
// Suites are named SnapshotSourceV2* so the CI TSan job picks them up.
#include "nucleus/store/snapshot_v2.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/core/hierarchy_index.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/store/delta.h"
#include "nucleus/store/snapshot_source.h"
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

/// Every lambda / nucleus / common / members / top answer of `a` and `b`,
/// compared on the serialized protocol bytes.
void ExpectSameAnswers(const QueryEngine& a, const QueryEngine& b) {
  ASSERT_EQ(a.NumCliques(), b.NumCliques());
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  std::vector<QueryEngine::Query> workload;
  for (std::int64_t u = 0; u < a.NumCliques(); ++u) {
    workload.push_back({QueryEngine::QueryKind::kLambda, u, 0});
    for (Lambda k = 1; k <= a.meta().max_lambda; ++k) {
      workload.push_back({QueryEngine::QueryKind::kNucleus, u, k});
    }
    workload.push_back(
        {QueryEngine::QueryKind::kCommon, u, (u * 5 + 1) % a.NumCliques()});
  }
  for (std::int64_t node = 0; node < a.NumNodes(); ++node) {
    workload.push_back({QueryEngine::QueryKind::kMembers, node, 0});
  }
  workload.push_back({QueryEngine::QueryKind::kTop, a.NumNodes(), 0});
  for (const QueryEngine::Query& query : workload) {
    EXPECT_EQ(ResponseToJson(query, a.Run(query)),
              ResponseToJson(query, b.Run(query)));
  }
}

// ---------------------------------------------------------------------------
// Round trips and upgrades.

class SnapshotSourceV2ZooTest
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(SnapshotSourceV2ZooTest, EagerLoadRoundTripsLosslesslyAllFamilies) {
  const Graph g = GetParam().make();
  const std::string path = TempPath("v2_zoo_" + GetParam().name + ".nucsnap");
  for (Family family :
       {Family::kCore12, Family::kTruss23, Family::kNucleus34}) {
    // Save WITHOUT index tables: v2 always embeds them, so the load must
    // come back index-ready regardless of what the writer was handed.
    const SnapshotData original = BuildSnapshot(g, family, false);
    ASSERT_TRUE(SaveSnapshotV2(original, path).ok());

    StatusOr<SnapshotData> loaded = LoadSnapshotV2(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->meta.family, family);
    EXPECT_EQ(loaded->meta.graph_fingerprint, GraphFingerprint(g));
    EXPECT_EQ(loaded->peel.lambda, original.peel.lambda);
    ExpectHierarchyEqual(original.hierarchy, loaded->hierarchy);
    loaded->hierarchy.Validate(loaded->peel.lambda);
    ASSERT_TRUE(loaded->has_index);
    const HierarchyIndexTables rebuilt =
        HierarchyIndex(loaded->hierarchy).Tables();
    EXPECT_EQ(loaded->index_tables.levels, rebuilt.levels);
    EXPECT_EQ(loaded->index_tables.depth, rebuilt.depth);
    EXPECT_EQ(loaded->index_tables.up, rebuilt.up);
  }
  std::remove(path.c_str());
}

TEST_P(SnapshotSourceV2ZooTest, UpgradeConvertsV1Losslessly) {
  // The zoo's v1 fixtures are (1,2) FND snapshots with index tables.
  const Graph g = GetParam().make();
  const SnapshotData original = BuildSnapshot(g, Family::kCore12, true);
  const std::string v1_path = testing_util::CopyV1Fixture(
      GetParam().name + "_core_index",
      "upgrade_" + GetParam().name + "_v1.nucsnap");
  const std::string v2_path =
      TempPath("upgrade_" + GetParam().name + "_v2.nucsnap");

  ASSERT_TRUE(UpgradeSnapshot(v1_path, v2_path).ok());
  auto version = ReadSnapshotVersion(v2_path);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);

  StatusOr<SnapshotData> upgraded = LoadSnapshotV2(v2_path);
  ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
  EXPECT_EQ(upgraded->meta.graph_fingerprint, GraphFingerprint(g));
  EXPECT_EQ(upgraded->peel.lambda, original.peel.lambda);
  ExpectHierarchyEqual(original.hierarchy, upgraded->hierarchy);
  EXPECT_EQ(upgraded->index_tables.up, original.index_tables.up);

  // The upgraded file, mapped, answers like the fresh decomposition.
  auto mapped = OpenSnapshotSource(v2_path, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectSameAnswers(*QueryEngine::FromSource(std::move(*mapped)),
                    *QueryEngine::FromSnapshotData(original));

  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Zoo, SnapshotSourceV2ZooTest,
                         ::testing::ValuesIn(GraphZoo()),
                         [](const auto& info) { return info.param.name; });

std::string WriteFigure2V2(const std::string& name) {
  const std::string path = TempPath(name);
  const SnapshotData snapshot = BuildSnapshot(
      testing_util::PaperFigure2Graph(), Family::kCore12, false);
  EXPECT_TRUE(SaveSnapshotV2(snapshot, path).ok());
  return path;
}

TEST(SnapshotSourceV2, FigureTwoFixturesUpgradeAndAnswerIdentically) {
  // Every family, with and without v1 index tables: the in-memory upgrade
  // (OpenSnapshotSource on the v1 file), the upgraded file mapped, and a
  // fresh decomposition all answer byte-identically.
  const Graph g = testing_util::PaperFigure2Graph();
  for (const auto& [family, name] :
       {std::pair{Family::kCore12, "core"},
        std::pair{Family::kTruss23, "truss"},
        std::pair{Family::kNucleus34, "34"}}) {
    for (const char* index : {"_index", "_noindex"}) {
      const std::string fixture = std::string("figure2_") + name + index;
      SCOPED_TRACE(fixture);
      const std::string v2_path = TempPath(fixture + "_up.nucsnap");
      ASSERT_TRUE(
          UpgradeSnapshot(testing_util::V1FixturePath(fixture), v2_path).ok());
      auto in_memory = OpenSnapshotSource(testing_util::V1FixturePath(fixture),
                                          SnapshotMemoryMode::kHeap);
      auto mapped = OpenSnapshotSource(v2_path, SnapshotMemoryMode::kMmap);
      ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      const auto fresh =
          QueryEngine::FromSnapshotData(BuildSnapshot(g, family, true));
      ExpectSameAnswers(*QueryEngine::FromSource(std::move(*in_memory)),
                        *fresh);
      ExpectSameAnswers(*QueryEngine::FromSource(std::move(*mapped)), *fresh);
      std::remove(v2_path.c_str());
    }
  }
}

TEST(SnapshotSourceV2, VersionProbeDistinguishesV1V2AndGarbage) {
  const std::string v1_path =
      testing_util::CopyV1Fixture("figure2_core_index", "probe_v1.nucsnap");
  const std::string v2_path = WriteFigure2V2("probe_v2.nucsnap");

  auto v1 = ReadSnapshotVersion(v1_path);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1u);
  auto v2 = ReadSnapshotVersion(v2_path);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);

  auto missing = ReadSnapshotVersion(TempPath("probe_missing.nucsnap"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  const std::string garbage_path = TempPath("probe_garbage.nucsnap");
  {
    std::ofstream out(garbage_path, std::ios::binary);
    out << "GARBAGEGARBAGE";
  }
  EXPECT_FALSE(ReadSnapshotVersion(garbage_path).ok());

  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
  std::remove(garbage_path.c_str());
}

TEST(SnapshotSourceV2, VersionDispatchLoadsEitherFormatEagerly) {
  // LoadSnapshot (the v1 entry point) must keep loading v1 files AND
  // dispatch v2 files to the eager v2 reader — chains, tooling and the
  // heap memory mode never care which version backs a path.
  const Graph g = testing_util::PaperFigure2Graph();
  const SnapshotData original = BuildSnapshot(g, Family::kCore12, true);
  const std::string v1_path =
      testing_util::CopyV1Fixture("figure2_core_index", "dispatch_v1.nucsnap");
  const std::string v2_path = WriteFigure2V2("dispatch_v2.nucsnap");

  for (const std::string& path : {v1_path, v2_path}) {
    StatusOr<SnapshotData> loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectHierarchyEqual(original.hierarchy, loaded->hierarchy);

    auto source = OpenSnapshotSource(path, SnapshotMemoryMode::kHeap);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    EXPECT_EQ((*source)->MappedBytes(), 0);
    EXPECT_GT((*source)->HeapBytes(), 0);
  }
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
}

TEST(SnapshotSourceV2, UpgradeAcceptsV2InputIdempotently) {
  const std::string v2_path = WriteFigure2V2("idem_v2.nucsnap");
  const std::string again_path = TempPath("idem_v2_again.nucsnap");
  ASSERT_TRUE(UpgradeSnapshot(v2_path, again_path).ok());
  StatusOr<SnapshotData> a = LoadSnapshotV2(v2_path);
  StatusOr<SnapshotData> b = LoadSnapshotV2(again_path);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectHierarchyEqual(a->hierarchy, b->hierarchy);
  std::remove(v2_path.c_str());
  std::remove(again_path.c_str());
}

// ---------------------------------------------------------------------------
// Loader error messages: every store loader reports `path: section: reason`
// so operators can grep one shape across v1, v2 and delta failures.

TEST(SnapshotSourceV2, LoaderErrorsFollowPathSectionReasonShape) {
  const std::string path = TempPath("shape.nucsnap");
  {
    std::ofstream out(path, std::ios::binary);
    out << "short";
  }
  // v1 loader.
  auto v1 = LoadSnapshot(path);
  ASSERT_FALSE(v1.ok());
  EXPECT_EQ(v1.status().message(), path + ": header: truncated snapshot");
  // v2 loader.
  auto v2 = LoadSnapshotV2(path);
  ASSERT_FALSE(v2.ok());
  EXPECT_EQ(v2.status().message(), path + ": header: truncated snapshot");
  // Delta loader.
  auto delta = LoadDelta(path);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().message(),
            path + ": header: truncated delta record");

  // Wrong-magic messages carry the same prefix discipline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << std::string(400, 'x');
  }
  auto bad_v1 = LoadSnapshot(path);
  ASSERT_FALSE(bad_v1.ok());
  EXPECT_EQ(bad_v1.status().message(),
            path + ": header: bad magic (not a snapshot file)");
  auto bad_v2 = LoadSnapshotV2(path);
  ASSERT_FALSE(bad_v2.ok());
  EXPECT_EQ(bad_v2.status().message(),
            path + ": header: bad magic (not a snapshot file)");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption sweep. Byte-patching helpers: the v2 header digest covers
// preamble + directory, so directory patches must re-checksum the header;
// section patches must re-digest the section entry too when the test wants
// semantic validation (not the checksum) to catch the corruption.

constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Mirror of store_v2_internal::SectionDigest (word-wise FNV-1a) —
/// reimplemented here so a digest-scheme regression in the store shows up
/// as a test failure instead of silently propagating into the fixtures.
std::uint64_t Fnv1a(const std::string& bytes, std::size_t offset,
                    std::size_t length) {
  std::uint64_t hash = kFnvOffsetBasis;
  std::size_t i = offset;
  for (; i + 8 <= offset + length; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    hash ^= word;
    hash *= kFnvPrime;
  }
  for (; i < offset + length; ++i) {
    hash ^= static_cast<unsigned char>(bytes[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

constexpr std::size_t kDirStart = 72;
constexpr std::size_t kHeaderDigestOffset = 392;  // preamble + directory

template <typename T>
T ReadField(const std::string& bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void PatchField(std::string* bytes, std::size_t offset, T value) {
  bytes->replace(offset, sizeof(T), reinterpret_cast<const char*>(&value),
                 sizeof(T));
}

/// Recomputes the header digest after a preamble/directory patch, so the
/// downstream check under test — not the header checksum — must fire.
void RechecksumHeader(std::string* bytes) {
  PatchField(bytes, kHeaderDigestOffset,
             Fnv1a(*bytes, 0, kHeaderDigestOffset));
}

std::size_t DirEntry(std::uint32_t section_index) {
  return kDirStart + section_index * 32;
}

/// The sweep's second memory mode. LoadSnapshotV2 is the owned open; a
/// mapped open of the same bytes must fail with the same diagnosis, either
/// at open (header / directory damage) or on the first Ensure that reads
/// the damaged section.
void ExpectMappedRejects(const std::string& path, const Status& owned) {
  ASSERT_FALSE(owned.ok());
  auto mapped = SnapshotSource::OpenV2(path, SnapshotMemoryMode::kMmap);
  const Status status =
      mapped.ok() ? (*mapped)->Ensure(kNeedAll) : mapped.status();
  EXPECT_EQ(status.message(), owned.message());
}

TEST(SnapshotSourceV2Negative, MissingFileIsNotFound) {
  auto result = LoadSnapshotV2(TempPath("v2_does_not_exist.nucsnap"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  auto mapped = OpenSnapshotSource(TempPath("v2_does_not_exist.nucsnap"),
                                   SnapshotMemoryMode::kMmap);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotSourceV2Negative, RejectsTruncatedHeader) {
  const std::string path = TempPath("v2_trunc_header.nucsnap");
  WriteFileBytes(path, std::string("NUCSNAP2") + std::string(92, '\0'));
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsBadMagic) {
  const std::string path = WriteFigure2V2("v2_bad_magic.nucsnap");
  std::string bytes = ReadFileBytes(path);
  bytes.replace(0, 8, "NOTASNAP");
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("bad magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsV1MagicOnV2Body) {
  // A v2 body wearing the v1 magic must fail CLEANLY in every reader: the
  // version dispatcher routes it to the v1 loader, whose header checks
  // reject it; the v2 loader rejects the magic outright.
  const std::string path = WriteFigure2V2("v2_v1_magic.nucsnap");
  std::string bytes = ReadFileBytes(path);
  bytes.replace(0, 8, "NUCSNAP1");
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(LoadSnapshot(path).ok());
  EXPECT_FALSE(LoadSnapshotV2(path).ok());
  EXPECT_FALSE(OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsUnsupportedVersion) {
  const std::string path = WriteFigure2V2("v2_bad_version.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchField<std::uint32_t>(&bytes, 8, 3);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("unsupported snapshot version"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsUnknownFlags) {
  const std::string path = WriteFigure2V2("v2_bad_flags.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchField<std::uint32_t>(&bytes, 12, 1);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("unknown snapshot flags"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsTruncatedSection) {
  const std::string path = WriteFigure2V2("v2_trunc_section.nucsnap");
  std::string bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() - 8);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("truncated"), std::string::npos);
  EXPECT_FALSE(OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsTrailingGarbage) {
  const std::string path = WriteFigure2V2("v2_trailing.nucsnap");
  std::string bytes = ReadFileBytes(path);
  bytes += std::string(16, 'z');
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("size mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsCorruptHeaderDigest) {
  // Flipping a per-section digest byte inside the directory breaks the
  // HEADER digest — directory integrity is eager, O(header).
  const std::string path = WriteFigure2V2("v2_bad_dir_digest.nucsnap");
  std::string bytes = ReadFileBytes(path);
  bytes[DirEntry(0) + 24] ^= 0x01;
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("corrupt header/directory"),
            std::string::npos);
  EXPECT_FALSE(OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsDirectoryOffsetOutOfRange) {
  const std::string path = WriteFigure2V2("v2_offset_oob.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchField<std::int64_t>(&bytes, DirEntry(0) + 8,
                           static_cast<std::int64_t>(bytes.size()) + 1024);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("offset out of range"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsMisalignedSectionOffset) {
  const std::string path = WriteFigure2V2("v2_misaligned.nucsnap");
  std::string bytes = ReadFileBytes(path);
  const auto offset = ReadField<std::int64_t>(bytes, DirEntry(0) + 8);
  PatchField<std::int64_t>(&bytes, DirEntry(0) + 8, offset + 4);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("offset out of range"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsOverlappingSections) {
  const std::string path = WriteFigure2V2("v2_overlap.nucsnap");
  std::string bytes = ReadFileBytes(path);
  const auto first_offset = ReadField<std::int64_t>(bytes, DirEntry(0) + 8);
  PatchField<std::int64_t>(&bytes, DirEntry(1) + 8, first_offset);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("overlapping sections"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsFlippedSectionByteEagerly) {
  const std::string path = WriteFigure2V2("v2_flip_section.nucsnap");
  std::string bytes = ReadFileBytes(path);
  const auto offset = ReadField<std::int64_t>(bytes, DirEntry(0) + 8);
  bytes[static_cast<std::size_t>(offset)] ^= 0x01;
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find(
                "lambda: checksum mismatch (corrupt section)"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, MmapDefersSectionCorruptionToFirstUse) {
  // Flip a byte in the density-ranking section: the mmap open (header
  // only) succeeds, queries that never touch the ranking keep answering,
  // and the first Ensure(kNeedRanking) fails — stickily.
  const std::string path = WriteFigure2V2("v2_lazy_corrupt.nucsnap");
  std::string bytes = ReadFileBytes(path);
  constexpr std::uint32_t kRankingIndex = 9;  // kDensityRanking id 10
  const auto offset =
      ReadField<std::int64_t>(bytes, DirEntry(kRankingIndex) + 8);
  bytes[static_cast<std::size_t>(offset)] ^= 0x01;
  WriteFileBytes(path, bytes);

  auto source = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_GT((*source)->MappedBytes(), 0);
  EXPECT_TRUE((*source)->Ensure(kNeedLookup).ok());
  EXPECT_TRUE((*source)->Ensure(kNeedIndex | kNeedSizes).ok());
  EXPECT_TRUE((*source)->Ensure(kNeedMembers).ok());

  const Status first = (*source)->Ensure(kNeedRanking);
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.message().find("checksum mismatch"), std::string::npos);
  // Sticky: the second probe fails identically, without re-verifying.
  const Status second = (*source)->Ensure(kNeedRanking);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.message(), first.message());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsSemanticCorruptionBehindValidDigest) {
  // Point the root's parent at itself, then FIX both the section digest
  // and the header digest: structural validation — not a checksum — must
  // reject the file.
  const std::string path = WriteFigure2V2("v2_semantic.nucsnap");
  std::string bytes = ReadFileBytes(path);
  constexpr std::uint32_t kNodeParentIndex = 2;  // kNodeParent id 3
  const auto offset =
      ReadField<std::int64_t>(bytes, DirEntry(kNodeParentIndex) + 8);
  const auto length =
      ReadField<std::int64_t>(bytes, DirEntry(kNodeParentIndex) + 16);
  PatchField<std::int32_t>(&bytes, static_cast<std::size_t>(offset), 0);
  PatchField<std::uint64_t>(
      &bytes, DirEntry(kNodeParentIndex) + 24,
      Fnv1a(bytes, static_cast<std::size_t>(offset),
            static_cast<std::size_t>(length)));
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);

  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("node_parent"),
            std::string::npos);

  // The lazy path rejects the same corruption on first tree access.
  auto source = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(source.ok());
  EXPECT_FALSE((*source)->Ensure(kNeedLookup).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsImpossibleCounts) {
  const std::string path = WriteFigure2V2("v2_counts.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchField<std::int32_t>(&bytes, 56, -1);  // node count
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("impossible counts"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsAbsurdCountsWithoutAllocating) {
  // A crafted 2^60 clique count must die on the size bound, not in an
  // allocator.
  const std::string path = WriteFigure2V2("v2_absurd.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchField<std::int64_t>(&bytes, 44, std::int64_t{1} << 60);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshotV2(path);
  ASSERT_FALSE(result.ok());
  ExpectMappedRejects(path, result.status());
  EXPECT_NE(result.status().message().find("size mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsMmapModeOnV1Section) {
  // kMmap over a v1 file upgrades it in memory (documented in
  // OpenSnapshotSource) — but the bytes must still be a valid snapshot.
  const std::string path =
      testing_util::CopyV1Fixture("figure2_core_index", "v2_mode_v1.nucsnap");
  auto source = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->MappedBytes(), 0);  // owned upgrade, nothing mapped

  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nucleus
