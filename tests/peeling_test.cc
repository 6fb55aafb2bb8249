#include "nucleus/core/peeling.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/core/generic_space.h"
#include "nucleus/parallel/parallel_peel.h"
#include "nucleus/store/snapshot.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::GraphCase;
using testing_util::GraphZoo;
using testing_util::ReferenceLambda;

TEST(PeelCore, KnownLambdas) {
  // Path: all lambda 1. Cycle: all 2. Complete(n): all n-1. Star: all 1.
  {
    const Graph g = Path(6);
    const PeelResult r = Peel(VertexSpace(g));
    for (Lambda l : r.lambda) EXPECT_EQ(l, 1);
    EXPECT_EQ(r.max_lambda, 1);
  }
  {
    const Graph g = Cycle(6);
    const PeelResult r = Peel(VertexSpace(g));
    for (Lambda l : r.lambda) EXPECT_EQ(l, 2);
  }
  {
    const Graph g = Complete(7);
    const PeelResult r = Peel(VertexSpace(g));
    for (Lambda l : r.lambda) EXPECT_EQ(l, 6);
  }
  {
    const Graph g = Star(9);
    const PeelResult r = Peel(VertexSpace(g));
    for (Lambda l : r.lambda) EXPECT_EQ(l, 1);
  }
}

TEST(PeelCore, IsolatedVertexHasLambdaZero) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.EnsureVertex(2);
  const Graph g = b.Build();
  const PeelResult r = Peel(VertexSpace(g));
  EXPECT_EQ(r.lambda[2], 0);
  EXPECT_EQ(r.lambda[0], 1);
}

TEST(PeelCore, Figure2TwoThreeCores) {
  // The paper's Figure 2 situation: K4s have lambda 3, bridge vertices 2.
  const Graph g = testing_util::PaperFigure2Graph();
  const PeelResult r = Peel(VertexSpace(g));
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(r.lambda[v], 3) << "v=" << v;
  EXPECT_EQ(r.lambda[8], 2);
  EXPECT_EQ(r.lambda[9], 2);
  EXPECT_EQ(r.max_lambda, 3);
}

TEST(PeelTruss, TriangleLambdaOne) {
  const Graph g = Complete(3);
  const EdgeIndex edges = EdgeIndex::Build(g);
  const PeelResult r = Peel(EdgeSpace(g, edges));
  for (Lambda l : r.lambda) EXPECT_EQ(l, 1);
}

TEST(PeelTruss, CompleteGraphLambdaIsNMinusTwo) {
  const Graph g = Complete(6);
  const EdgeIndex edges = EdgeIndex::Build(g);
  const PeelResult r = Peel(EdgeSpace(g, edges));
  for (Lambda l : r.lambda) EXPECT_EQ(l, 4);
}

TEST(PeelTruss, TriangleFreeEdgesLambdaZero) {
  const Graph g = CompleteBipartite(4, 4);
  const EdgeIndex edges = EdgeIndex::Build(g);
  const PeelResult r = Peel(EdgeSpace(g, edges));
  for (Lambda l : r.lambda) EXPECT_EQ(l, 0);
  EXPECT_EQ(r.max_lambda, 0);
}

TEST(PeelTruss, BowTieSharedVertexDoesNotConnectTrusses) {
  const Graph g = testing_util::BowTieGraph();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const PeelResult r = Peel(EdgeSpace(g, edges));
  // Every edge lies in exactly one triangle.
  for (Lambda l : r.lambda) EXPECT_EQ(l, 1);
}

TEST(Peel34, K4TrianglesLambdaOne) {
  const Graph g = Complete(4);
  const EdgeIndex edges = EdgeIndex::Build(g);
  const TriangleIndex triangles = TriangleIndex::Build(g, edges);
  const PeelResult r = Peel(TriangleSpace(g, edges, triangles));
  ASSERT_EQ(r.lambda.size(), 4u);
  for (Lambda l : r.lambda) EXPECT_EQ(l, 1);
}

TEST(Peel34, K6TrianglesLambdaThree) {
  // In K_n every triangle is in n-3 four-cliques and peeling cannot reduce
  // below that: lambda_4 = n - 3.
  const Graph g = Complete(6);
  const EdgeIndex edges = EdgeIndex::Build(g);
  const TriangleIndex triangles = TriangleIndex::Build(g, edges);
  const PeelResult r = Peel(TriangleSpace(g, edges, triangles));
  for (Lambda l : r.lambda) EXPECT_EQ(l, 3);
}

TEST(Peel34, K4FreeTrianglesLambdaZero) {
  const Graph g = Wheel(8);  // triangles but no K4
  const EdgeIndex edges = EdgeIndex::Build(g);
  const TriangleIndex triangles = TriangleIndex::Build(g, edges);
  const PeelResult r = Peel(TriangleSpace(g, edges, triangles));
  EXPECT_GT(triangles.NumTriangles(), 0);
  for (Lambda l : r.lambda) EXPECT_EQ(l, 0);
}

TEST(ComputeSupports, MatchesDegreesForVertexSpace) {
  const Graph g = BarabasiAlbert(40, 3, 3);
  const auto supports = ComputeSupports(VertexSpace(g));
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(supports[v], g.Degree(v));
  }
}

TEST(ComputeSupports, MatchesTriangleIndexForEdgeSpace) {
  const Graph g = ErdosRenyiGnp(40, 0.25, 15);
  const EdgeIndex edges = EdgeIndex::Build(g);
  const TriangleIndex triangles = TriangleIndex::Build(g, edges);
  const auto supports = ComputeSupports(EdgeSpace(g, edges));
  for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
    EXPECT_EQ(supports[e], triangles.EdgeSupport(e));
  }
}

// --- Parameterized sweep: bucket peeling vs the definitional fixpoint -----

class PeelZooTest : public ::testing::TestWithParam<GraphCase> {};

TEST_P(PeelZooTest, CoreMatchesReference) {
  const Graph g = GetParam().make();
  const VertexSpace space(g);
  const PeelResult r = Peel(space);
  EXPECT_EQ(r.lambda, ReferenceLambda(space));
}

TEST_P(PeelZooTest, TrussMatchesReference) {
  const Graph g = GetParam().make();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  const PeelResult r = Peel(space);
  EXPECT_EQ(r.lambda, ReferenceLambda(space));
}

TEST_P(PeelZooTest, Nucleus34MatchesReference) {
  const Graph g = GetParam().make();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const TriangleIndex triangles = TriangleIndex::Build(g, edges);
  const TriangleSpace space(g, edges, triangles);
  const PeelResult r = Peel(space);
  EXPECT_EQ(r.lambda, ReferenceLambda(space));
}

TEST_P(PeelZooTest, MaxLambdaIsMaxOfLambdas) {
  const Graph g = GetParam().make();
  const PeelResult r = Peel(VertexSpace(g));
  Lambda expected = 0;
  for (Lambda l : r.lambda) expected = std::max(expected, l);
  EXPECT_EQ(r.max_lambda, expected);
}

INSTANTIATE_TEST_SUITE_P(Zoo, PeelZooTest, ::testing::ValuesIn(GraphZoo()),
                         [](const ::testing::TestParamInfo<GraphCase>& info) {
                           return info.param.name;
                         });

// --- The flat-array (1,2) peel against every other peel -------------------
//
// Decompose runs Peel<VertexSpace> at every thread count, so these checks,
// not a serial-vs-threaded comparison, carry (1,2) lambda correctness: the
// definitional fixpoint, the generic bucket-queue peel (on GenericSpace's
// materialized (1,2) space) and the wave peel must all agree with it.

void ExpectArrayPeelMatchesOtherPeels(const Graph& g, bool with_reference) {
  const VertexSpace space(g);
  const PeelResult array = Peel(space);
  Lambda max_lambda = 0;
  for (Lambda l : array.lambda) max_lambda = std::max(max_lambda, l);
  EXPECT_EQ(array.max_lambda, max_lambda);
  if (with_reference) {
    EXPECT_EQ(array.lambda, ReferenceLambda(space));
  }
  const PeelResult generic = Peel(GenericSpace::Build(g, 1, 2));
  EXPECT_EQ(array.lambda, generic.lambda);
  EXPECT_EQ(array.max_lambda, generic.max_lambda);
  for (const int threads : {2, 4}) {
    ParallelConfig config = ParallelConfig::WithThreads(threads);
    config.grain_size = 64;
    const PeelResult wave = PeelParallel(space, config);
    EXPECT_EQ(array.lambda, wave.lambda) << "threads=" << threads;
    EXPECT_EQ(array.max_lambda, wave.max_lambda) << "threads=" << threads;
  }
}

TEST_P(PeelZooTest, ArrayPeelMatchesGenericAndWavePeels) {
  ExpectArrayPeelMatchesOtherPeels(GetParam().make(), true);
}

// A few thousand vertices, with isolated ones: RMat leaves ids unused, and
// the trailing ones are added explicitly.
std::vector<GraphCase> LargerCoreCases() {
  const auto with_isolated = [](const Graph& g) {
    GraphBuilder b(g.NumVertices() + 25);
    g.ForEachEdge([&b](VertexId u, VertexId v) { b.AddEdge(u, v); });
    return b.Build();
  };
  return {
      {"rmat_12", [] { return RMat(12, 20000, .57, .19, .19, 3); }},
      {"rmat_13_isolated",
       [=] { return with_isolated(RMat(13, 30000, .57, .19, .19, 5)); }},
      {"ba_3000_4", [] { return BarabasiAlbert(3000, 4, 7); }},
      {"ba_2000_9_isolated",
       [=] { return with_isolated(BarabasiAlbert(2000, 9, 11)); }},
  };
}

class ArrayPeel : public ::testing::TestWithParam<GraphCase> {};

TEST_P(ArrayPeel, MatchesReferenceGenericAndWavePeels) {
  ExpectArrayPeelMatchesOtherPeels(GetParam().make(), true);
}

// (1,2) Decompose writes the same .nucsnap bytes (bar the algorithm field)
// for DFT, FND and LCPS at every thread count.
TEST_P(ArrayPeel, CoreSnapshotBytesIdenticalAcrossThreadsAndAlgorithms) {
  const Graph g = GetParam().make();
  std::string first;
  for (const Algorithm algorithm :
       {Algorithm::kDft, Algorithm::kFnd, Algorithm::kLcps}) {
    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(::testing::Message() << AlgorithmName(algorithm)
                                        << " threads=" << threads);
      DecomposeOptions options;
      options.family = Family::kCore12;
      options.algorithm = algorithm;
      options.parallel = ParallelConfig::WithThreads(threads);
      const std::string bytes = testing_util::SavedBytesSansAlgorithm(
          MakeSnapshot(g, options, Decompose(g, options), false),
          "array_peel_" + GetParam().name + "_" + AlgorithmName(algorithm) +
              "_t" + std::to_string(threads));
      if (first.empty()) {
        first = bytes;
      } else {
        EXPECT_EQ(bytes, first);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ArrayPeel,
                         ::testing::ValuesIn(LargerCoreCases()),
                         [](const ::testing::TestParamInfo<GraphCase>& info) {
                           return info.param.name;
                         });

TEST(ArrayPeelEdgeCases, EmptyGraph) {
  const PeelResult r = Peel(VertexSpace(Graph()));
  EXPECT_TRUE(r.lambda.empty());
  EXPECT_EQ(r.max_lambda, 0);
}

TEST(ArrayPeelEdgeCases, IsolatedVerticesOnly) {
  const Graph g = GraphBuilder(40).Build();
  const PeelResult r = Peel(VertexSpace(g));
  EXPECT_EQ(r.lambda, std::vector<Lambda>(40, 0));
  EXPECT_EQ(r.max_lambda, 0);
  ExpectArrayPeelMatchesOtherPeels(g, true);
}

}  // namespace
}  // namespace nucleus
