#include "nucleus/parallel/parallel_peel.h"

#include <gtest/gtest.h>

#include "nucleus/cliques/edge_index.h"
#include "nucleus/cliques/triangle_index.h"
#include "nucleus/core/df_traversal.h"
#include "nucleus/core/hierarchy.h"
#include "nucleus/core/peeling.h"
#include "nucleus/graph/generators.h"
#include "test_util.h"

namespace nucleus {
namespace {

class ParallelPeelZoo
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(ParallelPeelZoo, VertexSpaceMatchesSerialAcrossThreadCounts) {
  const Graph g = GetParam().make();
  const VertexSpace space(g);
  const PeelResult serial = Peel(space);
  for (int threads : {1, 2, 4, 7}) {
    const PeelResult parallel = PeelParallel(space, threads);
    EXPECT_EQ(parallel.lambda, serial.lambda) << "threads=" << threads;
    EXPECT_EQ(parallel.max_lambda, serial.max_lambda);
  }
}

TEST_P(ParallelPeelZoo, EdgeSpaceMatchesSerial) {
  const Graph g = GetParam().make();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  const PeelResult serial = Peel(space);
  for (int threads : {1, 3}) {
    const PeelResult parallel = PeelParallel(space, threads);
    EXPECT_EQ(parallel.lambda, serial.lambda) << "threads=" << threads;
  }
}

TEST_P(ParallelPeelZoo, TriangleSpaceMatchesSerial) {
  const Graph g = GetParam().make();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const TriangleIndex triangles = TriangleIndex::Build(g, edges);
  const TriangleSpace space(g, edges, triangles);
  const PeelResult serial = Peel(space);
  for (int threads : {2, 5}) {
    const PeelResult parallel = PeelParallel(space, threads);
    EXPECT_EQ(parallel.lambda, serial.lambda) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, ParallelPeelZoo,
                         ::testing::ValuesIn(testing_util::GraphZoo()),
                         [](const auto& info) { return info.param.name; });

TEST(ParallelPeel, DeterministicAcrossRepeats) {
  const Graph g = ErdosRenyiGnp(80, 0.12, 61);
  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  const PeelResult first = PeelParallel(space, 4);
  for (int repeat = 0; repeat < 5; ++repeat) {
    EXPECT_EQ(PeelParallel(space, 4).lambda, first.lambda)
        << "repeat " << repeat;
  }
}

TEST(ParallelPeel, FeedsSerialHierarchyConstruction) {
  // The future-work pipeline: parallel lambda + serial DFT skeleton.
  const Graph g = testing_util::PaperFigure2Graph();
  const VertexSpace space(g);
  const PeelResult parallel = PeelParallel(space, 4);
  const SkeletonBuild build = DfTraversal(space, parallel);
  const NucleusHierarchy tree =
      NucleusHierarchy::FromSkeleton(build, g.NumVertices());
  tree.Validate(parallel.lambda);

  const SkeletonBuild serial_build = DfTraversal(space, Peel(space));
  testing_util::ExpectHierarchyEqual(
      tree, NucleusHierarchy::FromSkeleton(serial_build, g.NumVertices()));
}

TEST(ParallelPeel, ManyMoreThreadsThanWork) {
  const Graph g = Path(5);
  const PeelResult r = PeelParallel(VertexSpace(g), 64);
  for (Lambda l : r.lambda) EXPECT_EQ(l, 1);
}

TEST(ParallelPeel, EmptyGraph) {
  const PeelResult r = PeelParallel(VertexSpace(Graph()), 4);
  EXPECT_TRUE(r.lambda.empty());
  EXPECT_EQ(r.max_lambda, 0);
}

TEST(ParallelPeel, GenericSpacesMatchSerial) {
  // The wave peel is generic in (r, s) like everything else: exercise the
  // exotic decompositions the specialized spaces do not cover.
  const Graph g = ErdosRenyiGnp(30, 0.3, 67);
  for (const auto& [r, s] :
       {std::pair<int, int>{1, 3}, {1, 4}, {2, 4}}) {
    SCOPED_TRACE(testing::Message() << "(" << r << "," << s << ")");
    const GenericSpace space = GenericSpace::Build(g, r, s);
    EXPECT_EQ(PeelParallel(space, 3).lambda, Peel(space).lambda);
  }
}

TEST(ParallelPeel, LargerRandomSweeps) {
  // Larger graphs where waves genuinely interleave: supports collide on
  // shared supercliques across chunk boundaries.
  for (std::uint64_t seed : {71u, 73u}) {
    SCOPED_TRACE(seed);
    const Graph g = PlantedPartition(4, 20, 0.5, 0.05, seed);
    const EdgeIndex edges = EdgeIndex::Build(g);
    const EdgeSpace space(g, edges);
    EXPECT_EQ(PeelParallel(space, 4).lambda, Peel(space).lambda);
  }
}

}  // namespace
}  // namespace nucleus
