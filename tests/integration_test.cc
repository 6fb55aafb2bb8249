// Cross-module integration tests: each test chains several subsystems the
// way a downstream user would, asserting the seams agree — disk round trips
// feeding decompositions, semi-external hierarchies feeding exporters and
// query indexes, parallel peels feeding serial hierarchy construction.
#include <string>

#include <gtest/gtest.h>

#include "nucleus/cliques/edge_index.h"
#include "nucleus/core/decomposition.h"
#include "nucleus/core/df_traversal.h"
#include "nucleus/core/fast_nucleus.h"
#include "nucleus/core/hierarchy.h"
#include "nucleus/core/hierarchy_index.h"
#include "nucleus/core/peeling.h"
#include "nucleus/em/adjacency_file.h"
#include "nucleus/em/semi_external_core.h"
#include "nucleus/em/semi_external_truss.h"
#include "nucleus/graph/binary_io.h"
#include "nucleus/graph/generators.h"
#include "nucleus/io/hierarchy_export.h"
#include "nucleus/parallel/parallel_peel.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::TempPath;

TEST(Integration, DiskPipelineAnswersSameQueriesAsInMemory) {
  // Graph -> binary file -> semi-external decomposition -> HierarchyIndex
  // must answer every pairwise query identically to the in-memory pipeline.
  const Graph g = PlantedPartition(3, 15, 0.5, 0.05, 111);
  const std::string path = TempPath("int_pipeline.nucgraph");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  auto file = AdjacencyFile::Open(path);
  ASSERT_TRUE(file.ok());
  auto em = SemiExternalCoreDecomposition(*file, ::testing::TempDir());
  ASSERT_TRUE(em.ok());
  const NucleusHierarchy em_tree =
      NucleusHierarchy::FromSkeleton(em->build, g.NumVertices());
  const HierarchyIndex em_index(em_tree);

  DecomposeOptions opts;
  opts.family = Family::kCore12;
  opts.algorithm = Algorithm::kFnd;
  const DecompositionResult mem = Decompose(g, opts);
  const HierarchyIndex mem_index(mem.hierarchy);

  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = u; v < g.NumVertices(); v += 7) {
      EXPECT_EQ(em_index.CommonNucleusLevel(u, v),
                mem_index.CommonNucleusLevel(u, v))
          << u << "," << v;
    }
  }
}

TEST(Integration, SemiExternalTrussFeedsExporters) {
  // The EM truss skeleton flows through the same DOT/JSON exporters as the
  // in-memory trees, and both serializations parse back non-trivially.
  const Graph g = Caveman(3, 6, 4, 17);
  const std::string path = TempPath("int_truss.nucgraph");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  auto file = AdjacencyFile::Open(path);
  ASSERT_TRUE(file.ok());
  auto em = SemiExternalTrussDecomposition(*file, ::testing::TempDir());
  ASSERT_TRUE(em.ok());
  const EdgeIndex edges = EdgeIndex::Build(g);
  const NucleusHierarchy tree =
      NucleusHierarchy::FromSkeleton(em->build, edges.NumEdges());
  const std::string dot = HierarchyToDot(tree);
  const std::string json = HierarchyToJson(tree);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(json.find("\"lambda\""), std::string::npos);
  EXPECT_GT(tree.NumNuclei(), 0);
}

TEST(Integration, ParallelPeelFeedsFndSkeletonViaDft) {
  // Parallel lambda + serial DFT vs all-serial FND: identical hierarchies,
  // node for node, on a non-trivial graph.
  const Graph g = testing_util::BowTieGraph();
  {
    const VertexSpace space(g);
    const PeelResult par = PeelParallel(space, 3);
    const SkeletonBuild dft = DfTraversal(space, par);
    const FndResult fnd = FastNucleusDecomposition(space);
    testing_util::ExpectHierarchyEqual(
        NucleusHierarchy::FromSkeleton(dft, space.NumCliques()),
        NucleusHierarchy::FromSkeleton(fnd.build, space.NumCliques()));
  }
  {
    const EdgeIndex edges = EdgeIndex::Build(g);
    const EdgeSpace space(g, edges);
    const PeelResult par = PeelParallel(space, 2);
    const SkeletonBuild dft = DfTraversal(space, par);
    const FndResult fnd = FastNucleusDecomposition(space);
    testing_util::ExpectHierarchyEqual(
        NucleusHierarchy::FromSkeleton(dft, space.NumCliques()),
        NucleusHierarchy::FromSkeleton(fnd.build, space.NumCliques()));
  }
}

TEST(Integration, BinaryRoundTripPreservesDecomposition) {
  // Edge list -> Graph -> binary -> Graph: all three families decompose to
  // the same hierarchy as the original.
  const Graph original = WithTriadicClosure(BarabasiAlbert(35, 2, 19), 40, 23);
  const std::string path = TempPath("int_roundtrip.nucgraph");
  ASSERT_TRUE(WriteBinaryGraph(original, path).ok());
  auto loaded = ReadBinaryGraph(path);
  ASSERT_TRUE(loaded.ok());
  for (Family family :
       {Family::kCore12, Family::kTruss23, Family::kNucleus34}) {
    DecomposeOptions opts;
    opts.family = family;
    opts.algorithm = Algorithm::kFnd;
    const DecompositionResult a = Decompose(original, opts);
    const DecompositionResult b = Decompose(*loaded, opts);
    SCOPED_TRACE(FamilyName(family));
    testing_util::ExpectHierarchyEqual(a.hierarchy, b.hierarchy);
  }
}

}  // namespace
}  // namespace nucleus
