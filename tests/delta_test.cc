#include "nucleus/store/delta.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/serve/live_update.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/rng.h"
#include "nucleus/util/mutex.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::GraphZoo;
using testing_util::TempPath;

/// Apply() requires the updater's apply mutex at compile time; tests
/// take it the same way concurrent production callers do.
StatusOr<LiveUpdater::Result> LockedApply(LiveUpdater& updater,
                                          std::span<const EdgeEdit> edits) {
  MutexLock lock(updater.apply_mutex());
  return updater.Apply(edits);
}

SnapshotData BuildCoreSnapshot(const Graph& g, bool with_index = true,
                               Algorithm algorithm = Algorithm::kDft) {
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = algorithm;
  return MakeSnapshot(g, options, Decompose(g, options), with_index);
}

bool SameHierarchy(const NucleusHierarchy& a, const NucleusHierarchy& b) {
  if (a.NumNodes() != b.NumNodes() || a.NumCliques() != b.NumCliques()) {
    return false;
  }
  for (std::int32_t i = 0; i < a.NumNodes(); ++i) {
    if (a.node(i).lambda != b.node(i).lambda ||
        a.node(i).parent != b.node(i).parent ||
        a.node(i).members != b.node(i).members ||
        a.node(i).subtree_members != b.node(i).subtree_members) {
      return false;
    }
  }
  for (CliqueId u = 0; u < a.NumCliques(); ++u) {
    if (a.NodeOfClique(u) != b.NodeOfClique(u)) return false;
  }
  return true;
}

/// Evolves `updater` with `count` random edits and returns them.
std::vector<EdgeEdit> RandomEdits(const IncrementalCoreMaintainer& maintainer,
                                  Rng& rng, int count) {
  std::vector<EdgeEdit> edits;
  const VertexId n = maintainer.NumVertices();
  while (static_cast<int>(edits.size()) < count) {
    EdgeEdit edit;
    edit.u = rng.UniformVertex(n);
    edit.v = rng.UniformVertex(n);
    if (edit.u == edit.v) continue;
    edit.op = maintainer.HasEdge(edit.u, edit.v) ? EdgeEditOp::kRemove
                                                 : EdgeEditOp::kInsert;
    edits.push_back(edit);
  }
  return edits;
}

/// Builds a 3-record chain on disk via LiveUpdater and returns the paths
/// (base first) plus the final graph.
struct ChainFixture {
  std::vector<std::string> paths;
  Graph final_graph;
};

ChainFixture BuildChain(const Graph& g, const std::string& stem,
                        std::uint64_t seed, int batches = 3,
                        int batch_size = 6,
                        Algorithm algorithm = Algorithm::kDft) {
  ChainFixture fixture;
  const std::string base_path = TempPath(stem + "_base.nucsnap");
  SnapshotData base = BuildCoreSnapshot(g, true, algorithm);
  EXPECT_TRUE(SaveSnapshotV2(base, base_path).ok());
  fixture.paths.push_back(base_path);

  auto updater = LiveUpdater::Create(g, base);
  EXPECT_TRUE(updater.ok()) << updater.status().ToString();
  Rng rng(seed);
  for (int i = 0; i < batches; ++i) {
    const std::vector<EdgeEdit> edits =
        RandomEdits((*updater)->maintainer(), rng, batch_size);
    auto result = LockedApply(**updater, edits);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    const std::string delta_path =
        TempPath(stem + "_d" + std::to_string(i) + ".nucdelta");
    EXPECT_TRUE(SaveDelta(result->delta, delta_path).ok());
    fixture.paths.push_back(delta_path);
  }
  fixture.final_graph = (*updater)->maintainer().ToGraph();
  return fixture;
}

void RemoveAll(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Delta record round trips.

TEST(Delta, SaveLoadRoundTripIsLossless) {
  DeltaData delta;
  delta.num_vertices = 100;
  delta.max_lambda = 7;
  delta.parent_num_edges = 450;
  delta.child_num_edges = 452;
  delta.base_fingerprint = 0x1111222233334444ULL;
  delta.parent_fingerprint = 0x5555666677778888ULL;
  delta.child_fingerprint = 0x9999aaaabbbbccccULL;
  delta.edits = {{3, 7, EdgeEditOp::kInsert},
                 {12, 99, EdgeEditOp::kRemove},
                 {0, 1, EdgeEditOp::kInsert}};
  delta.patched_ids = {3, 7, 12};
  delta.patched_lambda = {2, 2, 7};

  const std::string path = TempPath("delta_roundtrip.nucdelta");
  ASSERT_TRUE(SaveDelta(delta, path).ok());
  StatusOr<DeltaData> loaded = LoadDelta(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_vertices, delta.num_vertices);
  EXPECT_EQ(loaded->max_lambda, delta.max_lambda);
  EXPECT_EQ(loaded->parent_num_edges, delta.parent_num_edges);
  EXPECT_EQ(loaded->child_num_edges, delta.child_num_edges);
  EXPECT_EQ(loaded->base_fingerprint, delta.base_fingerprint);
  EXPECT_EQ(loaded->parent_fingerprint, delta.parent_fingerprint);
  EXPECT_EQ(loaded->child_fingerprint, delta.child_fingerprint);
  ASSERT_EQ(loaded->edits.size(), delta.edits.size());
  for (std::size_t i = 0; i < delta.edits.size(); ++i) {
    EXPECT_EQ(loaded->edits[i].u, delta.edits[i].u);
    EXPECT_EQ(loaded->edits[i].v, delta.edits[i].v);
    EXPECT_EQ(loaded->edits[i].op, delta.edits[i].op);
  }
  EXPECT_EQ(loaded->patched_ids, delta.patched_ids);
  EXPECT_EQ(loaded->patched_lambda, delta.patched_lambda);
  std::remove(path.c_str());
}

TEST(Delta, EmptyBatchRoundTrips) {
  DeltaData delta;
  delta.num_vertices = 5;
  delta.parent_num_edges = 4;
  delta.child_num_edges = 4;
  const std::string path = TempPath("delta_empty.nucdelta");
  ASSERT_TRUE(SaveDelta(delta, path).ok());
  StatusOr<DeltaData> loaded = LoadDelta(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->edits.empty());
  EXPECT_TRUE(loaded->patched_ids.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Untrusted-input discipline: every corruption mode is a Status.

class DeltaCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("delta_corrupt.nucdelta");
    DeltaData delta;
    delta.num_vertices = 50;
    delta.max_lambda = 3;
    delta.parent_num_edges = 100;
    delta.child_num_edges = 101;
    delta.edits = {{1, 2, EdgeEditOp::kInsert}};
    delta.patched_ids = {1, 2};
    delta.patched_lambda = {3, 3};
    ASSERT_TRUE(SaveDelta(delta, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  void WriteBytes(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(DeltaCorruptionTest, RejectsBadMagicVersionTruncationAndBitFlips) {
  {
    std::vector<char> bad = bytes_;
    bad[0] = 'X';
    WriteBytes(bad);
    EXPECT_EQ(LoadDelta(path_).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::vector<char> bad = bytes_;
    bad[8] = 99;  // version
    WriteBytes(bad);
    EXPECT_EQ(LoadDelta(path_).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::vector<char> bad(bytes_.begin(), bytes_.begin() + 40);
    WriteBytes(bad);
    EXPECT_FALSE(LoadDelta(path_).ok());
  }
  {
    // Flip one payload byte (the edit list starts at 112): checksum
    // mismatch.
    std::vector<char> bad = bytes_;
    bad[115] = static_cast<char>(bad[115] ^ 0x40);
    WriteBytes(bad);
    const Status status = LoadDelta(path_).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  {
    // Trailing garbage changes the size without matching the header.
    std::vector<char> bad = bytes_;
    bad.push_back(0);
    WriteBytes(bad);
    EXPECT_FALSE(LoadDelta(path_).ok());
  }
  {
    // A crafted huge edit count must not over-allocate: bytes 88..95.
    std::vector<char> bad = bytes_;
    for (int i = 0; i < 8; ++i) bad[88 + i] = static_cast<char>(0x7f);
    WriteBytes(bad);
    EXPECT_FALSE(LoadDelta(path_).ok());
  }
  EXPECT_EQ(LoadDelta(TempPath("delta_nope.nucdelta")).status().code(),
            StatusCode::kNotFound);
  // A snapshot is not a delta.
  const Graph g = testing_util::PaperFigure2Graph();
  const std::string snap = TempPath("delta_not_a_delta.nucsnap");
  ASSERT_TRUE(SaveSnapshotV2(BuildCoreSnapshot(g), snap).ok());
  EXPECT_EQ(LoadDelta(snap).status().code(), StatusCode::kInvalidArgument);
  std::remove(snap.c_str());
}

// ---------------------------------------------------------------------------
// Chain resolution across the zoo: equivalence with fresh decomposition.

class DeltaChainZooTest
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(DeltaChainZooTest, ResolvedChainEqualsFreshDecomposition) {
  const Graph g = GetParam().make();
  if (g.NumVertices() < 4) return;
  ChainFixture fixture = BuildChain(g, "chain_" + GetParam().name, 11);

  StatusOr<SnapshotData> resolved =
      ResolveChain(fixture.paths, fixture.final_graph);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();

  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kDft;
  const DecompositionResult fresh = Decompose(fixture.final_graph, options);
  EXPECT_EQ(resolved->peel.lambda, fresh.peel.lambda);
  EXPECT_EQ(resolved->peel.max_lambda, fresh.peel.max_lambda);
  EXPECT_TRUE(SameHierarchy(resolved->hierarchy, fresh.hierarchy));
  EXPECT_EQ(resolved->meta.algorithm, Algorithm::kDft);
  EXPECT_EQ(resolved->meta.num_edges, fixture.final_graph.NumEdges());
  EXPECT_EQ(resolved->meta.graph_fingerprint,
            GraphFingerprint(fixture.final_graph));
  RemoveAll(fixture.paths);
}

INSTANTIATE_TEST_SUITE_P(Zoo, DeltaChainZooTest,
                         ::testing::ValuesIn(GraphZoo()),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Chain-level failure modes.

TEST(DeltaChain, BaseOnlyChainValidatesFingerprint) {
  const Graph g = testing_util::PaperFigure2Graph();
  const std::string base_path = TempPath("chain_baseonly.nucsnap");
  ASSERT_TRUE(SaveSnapshotV2(BuildCoreSnapshot(g), base_path).ok());

  ChainLink link;
  StatusOr<SnapshotData> resolved = ResolveChain({base_path}, g, &link);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(link.base_fingerprint, GraphFingerprint(g));
  EXPECT_EQ(link.parent_fingerprint, EdgeSetFingerprint(g));

  // The wrong graph is rejected.
  EXPECT_FALSE(ResolveChain({base_path}, Cycle(10)).ok());
  EXPECT_FALSE(ResolveChain({}, g).ok());
  std::remove(base_path.c_str());
}

TEST(DeltaChain, RejectsNonCoreBaseWrongOrderAndCorruptMiddleLink) {
  const Graph g = ErdosRenyiGnp(40, 0.12, 7);
  ChainFixture fixture = BuildChain(g, "chain_failures", 23);
  ASSERT_EQ(fixture.paths.size(), 4u);

  // Well-formed chain resolves.
  ASSERT_TRUE(ResolveChain(fixture.paths, fixture.final_graph).ok());

  // Swapped middle links: linkage fingerprints break.
  {
    std::vector<std::string> shuffled = fixture.paths;
    std::swap(shuffled[1], shuffled[2]);
    const Status status =
        ResolveChain(shuffled, fixture.final_graph).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("broken chain"), std::string::npos);
  }

  // A missing middle link is detected, not silently skipped.
  {
    std::vector<std::string> gapped{fixture.paths[0], fixture.paths[2],
                                    fixture.paths[3]};
    EXPECT_FALSE(ResolveChain(gapped, fixture.final_graph).ok());
  }

  // A corrupted middle link surfaces as Status, never a crash.
  {
    std::vector<char> bytes;
    {
      std::ifstream in(fixture.paths[2], std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    bytes[bytes.size() / 2] ^= 0x20;
    {
      std::ofstream out(fixture.paths[2],
                        std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const Status status =
        ResolveChain(fixture.paths, fixture.final_graph).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    // Restore for the next checks.
    bytes[bytes.size() / 2] ^= 0x20;
    std::ofstream out(fixture.paths[2], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // A truss base refuses chains.
  {
    DecomposeOptions truss;
    truss.family = Family::kTruss23;
    truss.algorithm = Algorithm::kFnd;
    const std::string truss_path = TempPath("chain_truss_base.nucsnap");
    ASSERT_TRUE(SaveSnapshotV2(
                    MakeSnapshot(g, truss, Decompose(g, truss), false),
                    truss_path)
                    .ok());
    const Status status =
        ResolveChain({truss_path, fixture.paths[1]}, fixture.final_graph)
            .status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("(1,2)"), std::string::npos);
    std::remove(truss_path.c_str());
  }

  // A chain from a different base graph is rejected by base fingerprint.
  {
    const Graph other = ErdosRenyiGnp(40, 0.12, 8);
    const std::string other_base = TempPath("chain_other_base.nucsnap");
    ASSERT_TRUE(
        SaveSnapshotV2(BuildCoreSnapshot(other), other_base).ok());
    std::vector<std::string> cross{other_base, fixture.paths[1]};
    EXPECT_FALSE(ResolveChain(cross, fixture.final_graph).ok());
    std::remove(other_base.c_str());
  }

  // The right chain with the wrong final graph is rejected.
  EXPECT_FALSE(ResolveChain(fixture.paths, g).ok());

  RemoveAll(fixture.paths);
}

TEST(DeltaChain, ChainLinkContinuesAnExistingChain) {
  const Graph g = Caveman(4, 8, 6, 29);
  ChainFixture fixture = BuildChain(g, "chain_continue", 31, /*batches=*/2);

  // Resolve, then extend the chain from the resolved state.
  ChainLink link;
  StatusOr<SnapshotData> resolved =
      ResolveChain(fixture.paths, fixture.final_graph, &link);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();

  auto updater =
      LiveUpdater::Create(fixture.final_graph, *resolved, link);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();
  Rng rng(77);
  const std::vector<EdgeEdit> edits =
      RandomEdits((*updater)->maintainer(), rng, 5);
  auto result = LockedApply(**updater, edits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string extension = TempPath("chain_continue_d2.nucdelta");
  ASSERT_TRUE(SaveDelta(result->delta, extension).ok());

  std::vector<std::string> extended = fixture.paths;
  extended.push_back(extension);
  const Graph final_graph = (*updater)->maintainer().ToGraph();
  StatusOr<SnapshotData> re_resolved = ResolveChain(extended, final_graph);
  ASSERT_TRUE(re_resolved.ok()) << re_resolved.status().ToString();

  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kDft;
  const DecompositionResult fresh = Decompose(final_graph, options);
  EXPECT_EQ(re_resolved->peel.lambda, fresh.peel.lambda);
  EXPECT_TRUE(SameHierarchy(re_resolved->hierarchy, fresh.hierarchy));

  std::remove(extension.c_str());
  RemoveAll(fixture.paths);
}

TEST(DeltaChain, ResolvedChainKeepsTheBaseAlgorithm) {
  // A chain on a default-built (FND) base resolves to the bytes a fresh
  // FND build of the final graph saves: the base's algorithm field is
  // carried through, not overwritten.
  const Graph g = Caveman(4, 8, 6, 29);
  ChainFixture fixture =
      BuildChain(g, "chain_fnd", 41, 3, 6, Algorithm::kFnd);
  StatusOr<SnapshotData> resolved =
      ResolveChain(fixture.paths, fixture.final_graph);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved->meta.algorithm, Algorithm::kFnd);
  const SnapshotData fresh =
      BuildCoreSnapshot(fixture.final_graph, false, Algorithm::kFnd);
  EXPECT_EQ(testing_util::SavedBytes(*resolved, "chain_fnd_resolved"),
            testing_util::SavedBytes(fresh, "chain_fnd_fresh"));
  RemoveAll(fixture.paths);
}

}  // namespace
}  // namespace nucleus
