#include "nucleus/core/df_traversal.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/fast_nucleus.h"
#include "nucleus/core/hierarchy.h"
#include "nucleus/core/lcps.h"
#include "nucleus/core/naive_traversal.h"
#include "nucleus/core/peeling.h"
#include "nucleus/em/adjacency_file.h"
#include "nucleus/em/semi_external_core.h"
#include "nucleus/em/semi_external_truss.h"
#include "nucleus/graph/binary_io.h"
#include "nucleus/parallel/parallel_fnd.h"
#include "test_util.h"

namespace nucleus {
namespace {

TEST(DfTraversal, CompAssignsEveryClique) {
  const Graph g = ErdosRenyiGnp(60, 0.12, 5);
  const VertexSpace space(g);
  const PeelResult peel = Peel(space);
  const SkeletonBuild build = DfTraversal(space, peel);
  ASSERT_EQ(build.comp.size(), static_cast<std::size_t>(g.NumVertices()));
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_NE(build.comp[v], kInvalidId);
    EXPECT_EQ(build.skeleton.LambdaOf(build.comp[v]), peel.lambda[v]);
  }
}

TEST(DfTraversal, SubNucleusCountsFigure2) {
  // Figure 2 has four T_{1,2}: the two K4 groups (lambda 3), and the bridge
  // vertices 8 and 9 separately — both have lambda 2 but share no edge, and
  // Definition 5 requires every vertex of the connecting sequence to have
  // lambda equal to 2, which the K4 corners (lambda 3) violate.
  const Graph g = testing_util::PaperFigure2Graph();
  const VertexSpace space(g);
  const PeelResult peel = Peel(space);
  const SkeletonBuild build = DfTraversal(space, peel);
  EXPECT_EQ(build.num_subnuclei, 4);
}

TEST(DfTraversal, StarSubNucleus) {
  // Star: all lambda 1, all strongly connected through the hub: one T_{1,2}.
  const Graph g = Star(12);
  const VertexSpace space(g);
  const PeelResult peel = Peel(space);
  const SkeletonBuild build = DfTraversal(space, peel);
  EXPECT_EQ(build.num_subnuclei, 1);
}

TEST(DfTraversal, NestedCliquesChainInHierarchy) {
  // K6 and K4 joined by one edge, plus a pendant vertex on the K6.
  // lambda: pendant 1, K4 vertices 3, K6 vertices 5 (the K6-K4 union is a
  // single connected 3-core). Expected chain:
  // root -> 1-core{pendant,...} -> 3-core{K4,...} -> 5-core{K6}.
  GraphBuilder b;
  for (VertexId u = 0; u < 6; ++u)
    for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  for (VertexId u = 6; u < 10; ++u)
    for (VertexId v = u + 1; v < 10; ++v) b.AddEdge(u, v);
  b.AddEdge(5, 6);   // clique bridge
  b.AddEdge(0, 10);  // pendant
  const Graph g = b.Build();
  const VertexSpace space(g);
  const PeelResult peel = Peel(space);
  EXPECT_EQ(peel.lambda[10], 1);
  EXPECT_EQ(peel.lambda[7], 3);
  EXPECT_EQ(peel.lambda[0], 5);
  const SkeletonBuild build = DfTraversal(space, peel);
  const NucleusHierarchy h =
      NucleusHierarchy::FromSkeleton(build, g.NumVertices());
  h.Validate(peel.lambda);
  const auto& root = h.node(h.root());
  ASSERT_EQ(root.children.size(), 1u);
  const auto& one_core = h.node(root.children[0]);
  EXPECT_EQ(one_core.lambda, 1);
  EXPECT_EQ(one_core.subtree_members, 11);
  ASSERT_EQ(one_core.children.size(), 1u);
  const auto& three_core = h.node(one_core.children[0]);
  EXPECT_EQ(three_core.lambda, 3);
  EXPECT_EQ(three_core.subtree_members, 10);
  ASSERT_EQ(three_core.children.size(), 1u);
  const auto& five_core = h.node(three_core.children[0]);
  EXPECT_EQ(five_core.lambda, 5);
  EXPECT_EQ(five_core.subtree_members, 6);
}

TEST(DfTraversal, EqualLambdaMergeAcrossBranches) {
  // Two K5s (lambda 4) joined by one edge: their 1-core is shared but no
  // vertex has lambda 1..3; each K5 is its own 4-core. The two sub-nuclei
  // of lambda 4 must NOT merge.
  GraphBuilder b;
  for (VertexId u = 0; u < 5; ++u)
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  for (VertexId u = 5; u < 10; ++u)
    for (VertexId v = u + 1; v < 10; ++v) b.AddEdge(u, v);
  b.AddEdge(4, 5);
  const Graph g = b.Build();
  const VertexSpace space(g);
  const PeelResult peel = Peel(space);
  // All vertices have lambda 4? No: the bridge endpoints have degree 5 but
  // peeling the rest leaves them with in-core degree 4. Everything is
  // lambda 4 except... verify via reference that DFT output matches naive.
  const SkeletonBuild build = DfTraversal(space, peel);
  const NucleusHierarchy h =
      NucleusHierarchy::FromSkeleton(build, g.NumVertices());
  h.Validate(peel.lambda);
  const auto got = testing_util::NucleiFromHierarchy(h);
  const auto want = testing_util::Canonicalize(
      CollectNucleiNaive(space, peel.lambda, peel.max_lambda));
  EXPECT_TRUE(testing_util::NucleiEqual(got, want));
}

TEST(DfTraversal, TrussSkeletonOnBowTie) {
  const Graph g = testing_util::BowTieGraph();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  const PeelResult peel = Peel(space);
  const SkeletonBuild build = DfTraversal(space, peel);
  // Two triangles not triangle-connected: two sub-nuclei.
  EXPECT_EQ(build.num_subnuclei, 2);
}

TEST(DfTraversal, Figure4StyleDistantEqualLambdaGroupsMergeIntoOneCore) {
  // The paper's Figure 4 concern: sub-nuclei of equal lambda that are not
  // directly connected (A and E in the figure) must still land in the same
  // k-core node. Three K4s in a row, joined by 4-cycle bridges:
  // K4a -(8,9)- K4b -(10,11)- K4c. The four bridge vertices (lambda 2) form
  // four singleton sub-nuclei; the hierarchy must merge them into ONE
  // 2-core with the three 3-cores as children.
  GraphBuilder b;
  for (VertexId base : {0, 4, 12}) {
    for (VertexId u = 0; u < 4; ++u)
      for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(base + u, base + v);
  }
  b.AddEdge(3, 8);
  b.AddEdge(8, 4);
  b.AddEdge(4, 9);
  b.AddEdge(9, 3);  // bridge cycle a<->b
  b.AddEdge(7, 10);
  b.AddEdge(10, 12);
  b.AddEdge(12, 11);
  b.AddEdge(11, 7);  // bridge cycle b<->c
  const Graph g = b.Build();
  const VertexSpace space(g);
  const PeelResult peel = Peel(space);
  for (VertexId v : {8, 9, 10, 11}) EXPECT_EQ(peel.lambda[v], 2);
  const SkeletonBuild build = DfTraversal(space, peel);
  EXPECT_EQ(build.num_subnuclei, 7);  // 3 cliques + 4 bridge singletons
  const NucleusHierarchy h =
      NucleusHierarchy::FromSkeleton(build, g.NumVertices());
  h.Validate(peel.lambda);
  EXPECT_EQ(h.NumNuclei(), 4);
  const auto& root = h.node(h.root());
  ASSERT_EQ(root.children.size(), 1u);
  const auto& two_core = h.node(root.children[0]);
  EXPECT_EQ(two_core.lambda, 2);
  EXPECT_EQ(two_core.members.size(), 4u);  // all bridge vertices together
  EXPECT_EQ(two_core.children.size(), 3u);
}

// Every skeleton producer closes its skeleton through SkeletonBuild::AddRoot:
// the root is the last node and the only parentless one, and every other
// node is a sub-nucleus.
TEST(DfTraversal, RootTiesAllParentless) {
  const Graph g = DisjointUnion({Complete(4), Complete(4), Path(3)});
  const VertexSpace space(g);
  const PeelResult peel = Peel(space);
  const std::string path = testing_util::TempPath("root_ties.nucgraph");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  auto file = AdjacencyFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto em_core = SemiExternalCoreDecomposition(*file, ::testing::TempDir());
  ASSERT_TRUE(em_core.ok()) << em_core.status().ToString();
  auto em_truss = SemiExternalTrussDecomposition(*file, ::testing::TempDir());
  ASSERT_TRUE(em_truss.ok()) << em_truss.status().ToString();

  const std::vector<std::pair<std::string, SkeletonBuild>> builds = {
      {"dft", DfTraversal(space, peel)},
      {"fnd", FastNucleusDecomposition(space).build},
      {"fnd_t4",
       FastNucleusDecompositionParallel(space, ParallelConfig{4}).build},
      {"lcps", LcpsKCoreHierarchy(g, peel)},
      {"em_core", em_core->build},
      {"em_truss", em_truss->build},
  };
  for (const auto& [name, build] : builds) {
    SCOPED_TRACE(name);
    const std::int64_t num_nodes = build.skeleton.NumNodes();
    EXPECT_EQ(build.root_id, num_nodes - 1);
    EXPECT_FALSE(build.skeleton.HasParent(build.root_id));
    for (std::int32_t s = 0; s < build.root_id; ++s) {
      EXPECT_TRUE(build.skeleton.HasParent(s)) << "node " << s;
    }
    EXPECT_EQ(build.num_subnuclei, num_nodes - 1);
  }
}

}  // namespace
}  // namespace nucleus
