// GenericSpace must (a) agree exactly with the specialized spaces on the
// three evaluated (r, s) cases — same lambdas, same nuclei from every
// algorithm — and (b) extend the framework to unevaluated cases like (1,3)
// and (2,4), validated against the definitional reference implementations.
#include "nucleus/core/generic_space.h"

#include <gtest/gtest.h>

#include "nucleus/core/df_traversal.h"
#include "nucleus/core/fast_nucleus.h"
#include "nucleus/core/hierarchy.h"
#include "nucleus/core/naive_traversal.h"
#include "nucleus/core/peeling.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::Canonicalize;
using testing_util::GraphCase;
using testing_util::NucleiEqual;
using testing_util::NucleiFromHierarchy;
using testing_util::ReferenceLambda;
using testing_util::ReferenceNuclei;

TEST(GenericSpace, BuildCountsOnCompleteGraph) {
  const Graph g = Complete(6);
  const GenericSpace space = GenericSpace::Build(g, 2, 4);
  EXPECT_EQ(space.NumCliques(), 15);       // C(6,2) edges
  EXPECT_EQ(space.NumSupercliques(), 15);  // C(6,4) four-cliques
  // Each K4 contains C(4,2) = 6 edges.
  std::int64_t touches = 0;
  for (CliqueId u = 0; u < space.NumCliques(); ++u) {
    space.ForEachSuperclique(u, [&](const CliqueId*, int count) {
      EXPECT_EQ(count, 6);
      ++touches;
    });
  }
  EXPECT_EQ(touches, 6 * 15);
}

TEST(GenericSpace, FindCliqueRoundTrip) {
  const Graph g = ErdosRenyiGnp(25, 0.3, 3);
  const GenericSpace space = GenericSpace::Build(g, 3, 4);
  for (CliqueId u = 0; u < space.NumCliques(); ++u) {
    EXPECT_EQ(space.FindClique(space.CliqueVertices(u)), u);
  }
  const VertexId absent[3] = {0, 1, 2};
  if (!g.HasEdge(0, 1)) {
    EXPECT_EQ(space.FindClique(absent), kInvalidId);
  }
}

// --- Agreement with the specialized spaces on (1,2), (2,3), (3,4) ---------

TEST(GenericSpace, Lambda12MatchesVertexSpace) {
  for (std::uint64_t seed : {1u, 2u}) {
    const Graph g = ErdosRenyiGnp(40, 0.15, seed);
    const PeelResult generic = Peel(GenericSpace::Build(g, 1, 2));
    const PeelResult specialized = Peel(VertexSpace(g));
    EXPECT_EQ(generic.lambda, specialized.lambda);
  }
}

TEST(GenericSpace, Lambda23MatchesEdgeSpaceUpToEdgeIdOrder) {
  // Both spaces assign edge ids lexicographically, so the lambda vectors
  // must be identical element-for-element.
  for (std::uint64_t seed : {3u, 4u}) {
    const Graph g = ErdosRenyiGnp(30, 0.25, seed);
    const EdgeIndex edges = EdgeIndex::Build(g);
    const PeelResult generic = Peel(GenericSpace::Build(g, 2, 3));
    const PeelResult specialized = Peel(EdgeSpace(g, edges));
    EXPECT_EQ(generic.lambda, specialized.lambda);
  }
}

TEST(GenericSpace, Lambda34MatchesTriangleSpaceAsMultiset) {
  // Triangle ids may be numbered differently; compare lambda multisets and
  // per-triangle lambmda through tuple lookup.
  const Graph g = ErdosRenyiGnp(25, 0.35, 5);
  const EdgeIndex edges = EdgeIndex::Build(g);
  const TriangleIndex triangles = TriangleIndex::Build(g, edges);
  const GenericSpace space = GenericSpace::Build(g, 3, 4);
  const PeelResult generic = Peel(space);
  const PeelResult specialized = Peel(TriangleSpace(g, edges, triangles));
  ASSERT_EQ(generic.lambda.size(), specialized.lambda.size());
  for (TriangleId t = 0; t < triangles.NumTriangles(); ++t) {
    const auto& vs = triangles.Vertices(t);
    const VertexId tuple[3] = {vs[0], vs[1], vs[2]};
    const CliqueId gid = space.FindClique(tuple);
    ASSERT_NE(gid, kInvalidId);
    EXPECT_EQ(generic.lambda[gid], specialized.lambda[t]);
  }
}

// --- New (r, s) cases, validated against the definitional references ------

class GenericRsTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GenericRsTest, PeelMatchesReferenceOnStructuredGraphs) {
  const auto [r, s] = GetParam();
  for (const Graph& g :
       {Complete(7), testing_util::PaperFigure2Graph(),
        Caveman(3, 6, 4, 9), PlantedPartition(2, 10, 0.7, 0.1, 11)}) {
    const GenericSpace space = GenericSpace::Build(g, r, s);
    const PeelResult peel = Peel(space);
    EXPECT_EQ(peel.lambda, ReferenceLambda(space)) << "r=" << r << " s=" << s;
  }
}

TEST_P(GenericRsTest, AllAlgorithmsAgreeOnRandomGraphs) {
  const auto [r, s] = GetParam();
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const Graph g = ErdosRenyiGnp(24, 0.35, seed);
    const GenericSpace space = GenericSpace::Build(g, r, s);
    const PeelResult peel = Peel(space);
    const auto naive = Canonicalize(
        CollectNucleiNaive(space, peel.lambda, peel.max_lambda));
    const auto reference = Canonicalize(
        ReferenceNuclei(space, peel.lambda, peel.max_lambda));
    EXPECT_TRUE(NucleiEqual(naive, reference));
    {
      const SkeletonBuild build = DfTraversal(space, peel);
      NucleusHierarchy h =
          NucleusHierarchy::FromSkeleton(build, space.NumCliques());
      h.Validate(peel.lambda);
      EXPECT_TRUE(NucleiEqual(NucleiFromHierarchy(h), naive))
          << "DFT r=" << r << " s=" << s << " seed=" << seed;
    }
    {
      const FndResult fnd = FastNucleusDecomposition(space);
      EXPECT_EQ(fnd.peel.lambda, peel.lambda);
      NucleusHierarchy h =
          NucleusHierarchy::FromSkeleton(fnd.build, space.NumCliques());
      h.Validate(peel.lambda);
      EXPECT_TRUE(NucleiEqual(NucleiFromHierarchy(h), naive))
          << "FND r=" << r << " s=" << s << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RsCases, GenericRsTest,
    ::testing::Values(std::pair<int, int>{1, 2}, std::pair<int, int>{1, 3},
                      std::pair<int, int>{1, 4}, std::pair<int, int>{2, 3},
                      std::pair<int, int>{2, 4}, std::pair<int, int>{3, 4}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& info) {
      std::string name = "r";
      name.append(std::to_string(info.param.first))
          .append("s")
          .append(std::to_string(info.param.second));
      return name;
    });

TEST(GenericSpace, K13NucleusOfK4IsWholeClique) {
  // (1,3): vertices by triangle membership. In K4 every vertex is in 3
  // triangles and they are triangle-connected: one 3-(1,3) nucleus.
  const Graph g = Complete(4);
  const GenericSpace space = GenericSpace::Build(g, 1, 3);
  const PeelResult peel = Peel(space);
  for (Lambda l : peel.lambda) EXPECT_EQ(l, 3);
  const auto nuclei =
      Canonicalize(CollectNucleiNaive(space, peel.lambda, peel.max_lambda));
  ASSERT_EQ(nuclei.size(), 1u);
  EXPECT_EQ(nuclei[0].k, 3);
  EXPECT_EQ(nuclei[0].members.size(), 4u);
}

TEST(GenericSpace, K24SeparatesSharedEdgeCliques) {
  // Two K4s sharing one edge: under (2,4), the shared edge is in both K4s
  // (lambda 2); the other edges are in one K4 each (lambda 1).
  GraphBuilder b;
  for (VertexId u = 0; u < 4; ++u)
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  b.AddEdge(0, 4);
  b.AddEdge(1, 4);
  b.AddEdge(0, 5);
  b.AddEdge(1, 5);
  b.AddEdge(4, 5);  // second K4 on {0,1,4,5}
  const Graph g = b.Build();
  const GenericSpace space = GenericSpace::Build(g, 2, 4);
  const PeelResult peel = Peel(space);
  // 11 edges total; each K4 has 6, sharing edge {0,1}.
  EXPECT_EQ(space.NumCliques(), 11);
  EXPECT_EQ(space.NumSupercliques(), 2);
  const VertexId shared[2] = {0, 1};
  const CliqueId shared_id = space.FindClique(shared);
  ASSERT_NE(shared_id, kInvalidId);
  for (CliqueId e = 0; e < space.NumCliques(); ++e) {
    EXPECT_EQ(peel.lambda[e], 1) << "edge " << e;
  }
}

}  // namespace
}  // namespace nucleus
