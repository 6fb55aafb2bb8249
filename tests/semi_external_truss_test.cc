#include "nucleus/em/semi_external_truss.h"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "nucleus/cliques/edge_index.h"
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
  const std::string path = TempPath("set.nucgraph");
  NUCLEUS_CHECK(WriteBinaryGraph(g, path).ok());
  auto file = AdjacencyFile::Open(path, block_bytes);
  NUCLEUS_CHECK_MSG(file.ok(), file.status().ToString().c_str());
  return std::move(*file);
}

class SemiExternalTrussZoo
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(SemiExternalTrussZoo, SupportsMatchInMemoryIndex) {
  const Graph g = GetParam().make();
  AdjacencyFile file = MustOpen(g);
  auto supports = SemiExternalTriangleSupports(file);
  ASSERT_TRUE(supports.ok()) << supports.status().ToString();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const std::vector<std::int32_t> want =
      ComputeSupports(EdgeSpace(g, edges));
  EXPECT_EQ(*supports, want);
}

TEST_P(SemiExternalTrussZoo, TrussnessMatchesInMemoryPeeling) {
  const Graph g = GetParam().make();
  AdjacencyFile file = MustOpen(g);
  auto em = SemiExternalTrussDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok()) << em.status().ToString();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const PeelResult want = Peel(EdgeSpace(g, edges));
  EXPECT_EQ(em->peel.lambda, want.lambda);
  EXPECT_EQ(em->peel.max_lambda, want.max_lambda);
}

TEST_P(SemiExternalTrussZoo, HierarchyMatchesDfTraversal) {
  const Graph g = GetParam().make();
  AdjacencyFile file = MustOpen(g);
  auto em = SemiExternalTrussDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok()) << em.status().ToString();

  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  const PeelResult peel = Peel(space);
  const SkeletonBuild dft = DfTraversal(space, peel);
  EXPECT_EQ(em->build.num_subnuclei, dft.num_subnuclei);

  const NucleusHierarchy em_tree =
      NucleusHierarchy::FromSkeleton(em->build, edges.NumEdges());
  em_tree.Validate(em->peel.lambda);
  const NucleusHierarchy dft_tree =
      NucleusHierarchy::FromSkeleton(dft, edges.NumEdges());
  testing_util::ExpectHierarchyEqual(em_tree, dft_tree);
}

INSTANTIATE_TEST_SUITE_P(Zoo, SemiExternalTrussZoo,
                         ::testing::ValuesIn(testing_util::GraphZoo()),
                         [](const auto& info) { return info.param.name; });

// --- Past the zoo: many lambda levels, tiny blocks --------------------------

// Skewed random graphs of 2k vertices reach far more trussness levels
// than the zoo, and 64-byte blocks split most lists, so Alg. 9's bins and
// the spill sort see many levels and block boundaries.
class SemiExternalTrussLarge
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(SemiExternalTrussLarge, HierarchyMatchesDfTraversalAtTinyBlocks) {
  const Graph g = GetParam().make();
  AdjacencyFile file = MustOpen(g, 64);
  auto em = SemiExternalTrussDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok()) << em.status().ToString();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  const PeelResult peel = Peel(space);
  ASSERT_GE(peel.max_lambda, 8);
  const SkeletonBuild dft = DfTraversal(space, peel);
  EXPECT_EQ(em->peel.lambda, peel.lambda);
  EXPECT_EQ(em->build.num_subnuclei, dft.num_subnuclei);
  const NucleusHierarchy em_tree =
      NucleusHierarchy::FromSkeleton(em->build, edges.NumEdges());
  em_tree.Validate(em->peel.lambda);
  testing_util::ExpectHierarchyEqual(
      em_tree, NucleusHierarchy::FromSkeleton(dft, edges.NumEdges()));
}

INSTANTIATE_TEST_SUITE_P(
    Skewed, SemiExternalTrussLarge,
    ::testing::Values(
        testing_util::GraphCase{
            "rmat_2k", [] { return RMat(11, 9000, 0.6, 0.15, 0.15, 3); }},
        testing_util::GraphCase{"ba_2k",
                                [] { return BarabasiAlbert(2000, 10, 3); }}),
    [](const auto& info) { return info.param.name; });

TEST(SemiExternalTruss, TriangleFreeGraphPeelsWithoutTriangleScans) {
  AdjacencyFile file = MustOpen(CompleteBipartite(5, 6));
  auto em = SemiExternalTrussDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok());
  for (Lambda l : em->peel.lambda) EXPECT_EQ(l, 0);
  // All edges die at level 0; one wave charges (vacuously) zero triangles.
  EXPECT_EQ(em->waves, 1);
  EXPECT_EQ(em->num_adj, 0);
}

TEST(SemiExternalTruss, CompleteGraphIsOneWave) {
  // K6: every edge has support 4 and trussness 4 — a single wave at the
  // top level after four empty kill sweeps.
  AdjacencyFile file = MustOpen(Complete(6));
  auto em = SemiExternalTrussDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok());
  for (Lambda l : em->peel.lambda) EXPECT_EQ(l, 4);
  EXPECT_EQ(em->waves, 1);
  EXPECT_EQ(em->build.num_subnuclei, 1);
}

TEST(SemiExternalTruss, WaveCountIsReportedAndBounded) {
  const Graph g = PlantedPartition(3, 15, 0.6, 0.05, 83);
  AdjacencyFile file = MustOpen(g);
  auto em = SemiExternalTrussDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok());
  EXPECT_GE(em->waves, 1);
  // Never more waves than edges (each wave kills at least one edge).
  EXPECT_LE(em->waves, g.NumEdges());
  EXPECT_GT(em->io.bytes_read, 0);
}

TEST(SemiExternalTruss, TinyBlocksGiveIdenticalResults) {
  const Graph g = ErdosRenyiGnp(40, 0.25, 91);
  AdjacencyFile big = MustOpen(g, 1 << 20);
  auto r_big = SemiExternalTrussDecomposition(big, ::testing::TempDir());
  ASSERT_TRUE(r_big.ok());
  AdjacencyFile tiny = MustOpen(g, 64);
  auto r_tiny = SemiExternalTrussDecomposition(tiny, ::testing::TempDir());
  ASSERT_TRUE(r_tiny.ok());
  EXPECT_EQ(r_big->peel.lambda, r_tiny->peel.lambda);
  EXPECT_EQ(r_big->build.num_subnuclei, r_tiny->build.num_subnuclei);
}

TEST(SemiExternalTruss, SpillFilesAreRemovedOnSuccess) {
  // A dedicated scratch directory: whatever spill files the decomposition
  // creates (their names are unique per call), all must be gone on success.
  const std::string dir = TempPath("set_scratch");
  std::filesystem::create_directory(dir);
  AdjacencyFile file = MustOpen(testing_util::BowTieGraph());
  auto em = SemiExternalTrussDecomposition(file, dir);
  ASSERT_TRUE(em.ok());
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "leftover scratch in " << dir;
  std::filesystem::remove_all(dir);
}

TEST(SemiExternalTruss, UnwritableTempDirFails) {
  AdjacencyFile file = MustOpen(Complete(4));
  auto em = SemiExternalTrussDecomposition(file, "/nonexistent_dir");
  ASSERT_FALSE(em.ok());
  EXPECT_EQ(em.status().code(), StatusCode::kInternal);
}

TEST(SemiExternalTruss, EmptyGraph) {
  AdjacencyFile file = MustOpen(Graph());
  auto em = SemiExternalTrussDecomposition(file, ::testing::TempDir());
  ASSERT_TRUE(em.ok());
  EXPECT_TRUE(em->peel.lambda.empty());
  EXPECT_EQ(em->waves, 0);
}

}  // namespace
}  // namespace nucleus
