#include "nucleus/em/semi_external_core.h"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "nucleus/core/df_traversal.h"
#include "nucleus/core/hierarchy.h"
#include "nucleus/core/peeling.h"
#include "nucleus/core/spaces.h"
#include "nucleus/em/adjacency_file.h"
#include "nucleus/graph/binary_io.h"
#include "nucleus/graph/generators.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::TempPath;

AdjacencyFile MustOpen(const Graph& g, std::size_t block_bytes = 1 << 16) {
  const std::string path = TempPath("sec.nucgraph");
  NUCLEUS_CHECK(WriteBinaryGraph(g, path).ok());
  auto file = AdjacencyFile::Open(path, block_bytes);
  NUCLEUS_CHECK_MSG(file.ok(), file.status().ToString().c_str());
  return std::move(*file);
}

// --- Lambda equivalence across the zoo --------------------------------------

class SemiExternalZoo
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(SemiExternalZoo, LambdaMatchesInMemoryPeeling) {
  const Graph g = GetParam().make();
  AdjacencyFile file = MustOpen(g);
  int passes = 0;
  auto em = SemiExternalCoreLambda(file, &passes);
  ASSERT_TRUE(em.ok()) << em.status().ToString();
  const PeelResult want = Peel(VertexSpace(g));
  EXPECT_EQ(em->lambda, want.lambda);
  EXPECT_EQ(em->max_lambda, want.max_lambda);
  EXPECT_GE(passes, 1);
}

TEST_P(SemiExternalZoo, HierarchyMatchesDfTraversal) {
  const Graph g = GetParam().make();
  AdjacencyFile file = MustOpen(g);
  auto em = SemiExternalCoreDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok()) << em.status().ToString();

  const VertexSpace space(g);
  const PeelResult peel = Peel(space);
  const SkeletonBuild dft = DfTraversal(space, peel);

  const NucleusHierarchy em_tree =
      NucleusHierarchy::FromSkeleton(em->build, g.NumVertices());
  const NucleusHierarchy dft_tree =
      NucleusHierarchy::FromSkeleton(dft, g.NumVertices());
  em_tree.Validate(em->peel.lambda);
  testing_util::ExpectHierarchyEqual(em_tree, dft_tree);
}

TEST_P(SemiExternalZoo, SubcoreCountMatchesDfTraversal) {
  // The EM builder unions over ALL equal-lambda edges, so its sub-nuclei
  // are maximal T_{1,2} — exactly what DF-Traversal discovers.
  const Graph g = GetParam().make();
  AdjacencyFile file = MustOpen(g);
  auto em = SemiExternalCoreDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok());
  const VertexSpace space(g);
  const SkeletonBuild dft = DfTraversal(space, Peel(space));
  EXPECT_EQ(em->build.num_subnuclei, dft.num_subnuclei);
}

INSTANTIATE_TEST_SUITE_P(Zoo, SemiExternalZoo,
                         ::testing::ValuesIn(testing_util::GraphZoo()),
                         [](const auto& info) { return info.param.name; });

// --- Targeted behaviors ------------------------------------------------------

// --- Past the zoo: many lambda levels, tiny blocks --------------------------

// Skewed random graphs of 2-8k vertices reach far more lambda levels than
// the zoo, and 64-byte blocks split most lists, so Alg. 9's bins and the
// spill sort see many levels and block boundaries.
class SemiExternalLarge
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(SemiExternalLarge, HierarchyMatchesDfTraversalAtTinyBlocks) {
  const Graph g = GetParam().make();
  AdjacencyFile file = MustOpen(g, 64);
  auto em = SemiExternalCoreDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok()) << em.status().ToString();
  const VertexSpace space(g);
  const PeelResult peel = Peel(space);
  ASSERT_GE(peel.max_lambda, 8);
  const SkeletonBuild dft = DfTraversal(space, peel);
  EXPECT_EQ(em->peel.lambda, peel.lambda);
  EXPECT_EQ(em->build.num_subnuclei, dft.num_subnuclei);
  const NucleusHierarchy em_tree =
      NucleusHierarchy::FromSkeleton(em->build, g.NumVertices());
  em_tree.Validate(em->peel.lambda);
  testing_util::ExpectHierarchyEqual(
      em_tree, NucleusHierarchy::FromSkeleton(dft, g.NumVertices()));
}

INSTANTIATE_TEST_SUITE_P(
    Skewed, SemiExternalLarge,
    ::testing::Values(
        testing_util::GraphCase{
            "rmat_8k",
            [] { return RMat(13, 80000, 0.57, 0.19, 0.19, 7); }},
        testing_util::GraphCase{"ba_2k",
                                [] { return BarabasiAlbert(2000, 10, 3); }}),
    [](const auto& info) { return info.param.name; });

TEST(SemiExternalCore, PathConvergesQuicklyWithScanOrder) {
  // Gauss-Seidel scans in increasing id order, so the correction wave from
  // the low-id endpoint of a path sweeps the whole graph in one pass.
  AdjacencyFile file = MustOpen(Path(64));
  int passes = 0;
  auto em = SemiExternalCoreLambda(file, &passes);
  ASSERT_TRUE(em.ok());
  for (VertexId v = 0; v < 64; ++v) EXPECT_EQ(em->lambda[v], 1);
  EXPECT_LE(passes, 3);
}

TEST(SemiExternalCore, AntiScanOrderTailNeedsLinearPasses) {
  // The iteration's known worst case: corrections that must propagate
  // against the scan order advance one vertex per pass. A cycle (lambda 2)
  // with a pendant chain whose ids ascend away from the attachment point
  // forces the lambda = 1 correction to travel high-id -> low-id.
  GraphBuilder b(21);
  for (VertexId v = 0; v < 6; ++v) b.AddEdge(v, (v + 1) % 6);
  b.AddEdge(0, 11);
  for (VertexId v = 11; v < 20; ++v) b.AddEdge(v, v + 1);
  const Graph g = b.Build();

  AdjacencyFile file = MustOpen(g);
  int passes = 0;
  auto em = SemiExternalCoreLambda(file, &passes);
  ASSERT_TRUE(em.ok());
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(em->lambda[v], 2);
  for (VertexId v = 11; v <= 20; ++v) EXPECT_EQ(em->lambda[v], 1);
  EXPECT_GE(passes, 8);  // one chain vertex corrected per pass
}

TEST(SemiExternalCore, CompleteGraphConvergesInTwoPasses) {
  AdjacencyFile file = MustOpen(Complete(20));
  int passes = 0;
  auto em = SemiExternalCoreLambda(file, &passes);
  ASSERT_TRUE(em.ok());
  for (VertexId v = 0; v < 20; ++v) EXPECT_EQ(em->lambda[v], 19);
  EXPECT_LE(passes, 2);  // degrees are already the fixpoint; +1 to verify
}

TEST(SemiExternalCore, TinyBlocksGiveIdenticalResults) {
  const Graph g = ErdosRenyiGnp(60, 0.15, 3);
  AdjacencyFile big = MustOpen(g, 1 << 20);
  auto r_big = SemiExternalCoreDecomposition(big, ::testing::TempDir());
  ASSERT_TRUE(r_big.ok());

  const std::string path = TempPath("tiny.nucgraph");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  auto tiny = AdjacencyFile::Open(path, 64);
  ASSERT_TRUE(tiny.ok());
  auto r_tiny = SemiExternalCoreDecomposition(*tiny, ::testing::TempDir());
  ASSERT_TRUE(r_tiny.ok());

  EXPECT_EQ(r_big->peel.lambda, r_tiny->peel.lambda);
  EXPECT_EQ(r_big->build.num_subnuclei, r_tiny->build.num_subnuclei);
  const auto tree_big = NucleusHierarchy::FromSkeleton(
      r_big->build, g.NumVertices());
  const auto tree_tiny = NucleusHierarchy::FromSkeleton(
      r_tiny->build, g.NumVertices());
  testing_util::ExpectHierarchyEqual(tree_big, tree_tiny);
}

TEST(SemiExternalCore, IoStatsAccountScansAndSpills) {
  const Graph g = testing_util::PaperFigure2Graph();
  AdjacencyFile file = MustOpen(g);
  file.ResetStats();
  auto em = SemiExternalCoreDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok());
  // lambda_passes scans for the fixpoint + 1 edge scan for DSF/spill.
  EXPECT_EQ(file.stats().scans, em->lambda_passes + 1);
  EXPECT_GT(em->io.bytes_read, 0);
  // Figure 2 has lambda-crossing edges (2-core ring to 3-core cliques), so
  // pairs must have spilled and been rewritten by the sort.
  EXPECT_GT(em->num_adj, 0);
  EXPECT_GT(em->io.bytes_written, 0);
}

TEST(SemiExternalCore, SpillFilesAreRemovedOnSuccess) {
  // A dedicated scratch directory: whatever spill files the decomposition
  // creates (their names are unique per call), all must be gone on success.
  const std::string dir = TempPath("sec_scratch");
  std::filesystem::create_directory(dir);
  AdjacencyFile file = MustOpen(testing_util::BowTieGraph());
  auto em = SemiExternalCoreDecomposition(file, dir);
  ASSERT_TRUE(em.ok());
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "leftover scratch in " << dir;
  std::filesystem::remove_all(dir);
}

TEST(SemiExternalCore, UnwritableTempDirFails) {
  AdjacencyFile file = MustOpen(Complete(4));
  auto em = SemiExternalCoreDecomposition(file, "/nonexistent_dir");
  ASSERT_FALSE(em.ok());
  EXPECT_EQ(em.status().code(), StatusCode::kInternal);
}

TEST(SemiExternalCore, EmptyGraph) {
  AdjacencyFile file = MustOpen(Graph());
  auto em = SemiExternalCoreDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok());
  EXPECT_TRUE(em->peel.lambda.empty());
  EXPECT_EQ(em->build.num_subnuclei, 0);
  EXPECT_EQ(em->num_adj, 0);
}

TEST(SemiExternalCore, IsolatedVerticesBecomeSingletonSubnuclei) {
  Graph g = Graph::FromCsr({0, 0, 0, 0}, {});
  AdjacencyFile file = MustOpen(g);
  auto em = SemiExternalCoreDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok());
  EXPECT_EQ(em->build.num_subnuclei, 3);
  const auto tree = NucleusHierarchy::FromSkeleton(em->build, 3);
  EXPECT_EQ(tree.NumNuclei(), 0);  // lambda = 0: no real nuclei
}

}  // namespace
}  // namespace nucleus
