// The central correctness claim of the reproduction: for every graph family
// and every (r,s) in {(1,2), (2,3), (3,4)}, the hierarchy-producing
// algorithms (DFT, FND, and LCPS for (1,2)) report exactly the same set of
// k-(r,s) nuclei as the naive per-k traversal (Alg. 2) and as the
// independent union-find reference.
#include <gtest/gtest.h>

#include "nucleus/core/df_traversal.h"
#include "nucleus/core/fast_nucleus.h"
#include "nucleus/core/hierarchy.h"
#include "nucleus/core/lcps.h"
#include "nucleus/core/naive_traversal.h"
#include "nucleus/core/peeling.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::Canonicalize;
using testing_util::GraphCase;
using testing_util::GraphZoo;
using testing_util::NucleiEqual;
using testing_util::NucleiFromHierarchy;

class EquivalenceTest : public ::testing::TestWithParam<GraphCase> {};

template <typename Space>
void CheckAllAlgorithms(const Space& space, std::int64_t num_cliques) {
  const PeelResult peel = Peel(space);
  const auto naive = Canonicalize(
      CollectNucleiNaive(space, peel.lambda, peel.max_lambda));
  const auto reference = Canonicalize(
      testing_util::ReferenceNuclei(space, peel.lambda, peel.max_lambda));
  EXPECT_TRUE(NucleiEqual(naive, reference)) << "naive vs reference";

  {
    const SkeletonBuild build = DfTraversal(space, peel);
    NucleusHierarchy h = NucleusHierarchy::FromSkeleton(build, num_cliques);
    h.Validate(peel.lambda);
    EXPECT_TRUE(NucleiEqual(NucleiFromHierarchy(h), naive)) << "DFT vs naive";
  }
  {
    const FndResult fnd = FastNucleusDecomposition(space);
    EXPECT_EQ(fnd.peel.lambda, peel.lambda) << "FND lambda";
    NucleusHierarchy h =
        NucleusHierarchy::FromSkeleton(fnd.build, num_cliques);
    h.Validate(peel.lambda);
    EXPECT_TRUE(NucleiEqual(NucleiFromHierarchy(h), naive)) << "FND vs naive";
  }
}

TEST_P(EquivalenceTest, Core12AllAlgorithmsAgree) {
  const Graph g = GetParam().make();
  const VertexSpace space(g);
  CheckAllAlgorithms(space, g.NumVertices());
  // LCPS applies to (1,2) only.
  const PeelResult peel = Peel(space);
  const SkeletonBuild build = LcpsKCoreHierarchy(g, peel);
  NucleusHierarchy h = NucleusHierarchy::FromSkeleton(build, g.NumVertices());
  h.Validate(peel.lambda);
  const auto naive = Canonicalize(
      CollectNucleiNaive(space, peel.lambda, peel.max_lambda));
  EXPECT_TRUE(NucleiEqual(NucleiFromHierarchy(h), naive)) << "LCPS vs naive";
}

TEST_P(EquivalenceTest, Truss23AllAlgorithmsAgree) {
  const Graph g = GetParam().make();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  CheckAllAlgorithms(space, edges.NumEdges());
}

TEST_P(EquivalenceTest, Nucleus34AllAlgorithmsAgree) {
  const Graph g = GetParam().make();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const TriangleIndex triangles = TriangleIndex::Build(g, edges);
  const TriangleSpace space(g, edges, triangles);
  CheckAllAlgorithms(space, triangles.NumTriangles());
}

// Direct FND-vs-DFT comparison, independent of the naive baseline: both
// hierarchy builders must agree on the peel numbers and produce the same
// hierarchy node for node (canonical numbering) on every zoo graph, in
// both the (2,3) truss and the (3,4) nucleus space.
template <typename Space>
void CheckFndMatchesDftCanonically(const Space& space,
                                   std::int64_t num_cliques) {
  const PeelResult peel = Peel(space);
  const SkeletonBuild dft = DfTraversal(space, peel);
  NucleusHierarchy dft_h = NucleusHierarchy::FromSkeleton(dft, num_cliques);
  dft_h.Validate(peel.lambda);

  const FndResult fnd = FastNucleusDecomposition(space);
  EXPECT_EQ(fnd.peel.max_lambda, peel.max_lambda);
  NucleusHierarchy fnd_h =
      NucleusHierarchy::FromSkeleton(fnd.build, num_cliques);
  fnd_h.Validate(fnd.peel.lambda);

  testing_util::ExpectHierarchyEqual(dft_h, fnd_h);
}

TEST_P(EquivalenceTest, Truss23FndMatchesDftCanonically) {
  const Graph g = GetParam().make();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  CheckFndMatchesDftCanonically(space, edges.NumEdges());
}

TEST_P(EquivalenceTest, Nucleus34FndMatchesDftCanonically) {
  const Graph g = GetParam().make();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const TriangleIndex triangles = TriangleIndex::Build(g, edges);
  const TriangleSpace space(g, edges, triangles);
  CheckFndMatchesDftCanonically(space, triangles.NumTriangles());
}

INSTANTIATE_TEST_SUITE_P(Zoo, EquivalenceTest,
                         ::testing::ValuesIn(GraphZoo()),
                         [](const ::testing::TestParamInfo<GraphCase>& info) {
                           return info.param.name;
                         });

// Larger randomized sweep (seeds as parameter) on ER graphs: sizes beyond
// the zoo, all three families, DFT + FND vs naive.
class RandomEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEquivalenceTest, AllFamiliesAgreeOnRandomGraph) {
  const int seed = GetParam();
  const Graph g = ErdosRenyiGnp(80, 0.10 + 0.02 * (seed % 5), seed);
  {
    const VertexSpace space(g);
    CheckAllAlgorithms(space, g.NumVertices());
  }
  const EdgeIndex edges = EdgeIndex::Build(g);
  {
    const EdgeSpace space(g, edges);
    CheckAllAlgorithms(space, edges.NumEdges());
  }
  const TriangleIndex triangles = TriangleIndex::Build(g, edges);
  {
    const TriangleSpace space(g, edges, triangles);
    CheckAllAlgorithms(space, triangles.NumTriangles());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalenceTest,
                         ::testing::Range(100, 120));

}  // namespace
}  // namespace nucleus
