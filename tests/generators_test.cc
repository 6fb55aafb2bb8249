#include "nucleus/graph/generators.h"

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/graph/graph_builder.h"
#include "nucleus/graph/graph_stats.h"
#include "test_util.h"

namespace nucleus {
namespace {

TEST(Generators, PathHasChainStructure) {
  const Graph g = Path(5);
  EXPECT_EQ(g.NumVertices(), 5);
  EXPECT_EQ(g.NumEdges(), 4);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(2), 2);
}

TEST(Generators, CycleDegreesAllTwo) {
  const Graph g = Cycle(7);
  EXPECT_EQ(g.NumEdges(), 7);
  for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(g.Degree(v), 2);
}

TEST(Generators, StarHubAndLeaves) {
  const Graph g = Star(6);
  EXPECT_EQ(g.NumVertices(), 7);
  EXPECT_EQ(g.Degree(0), 6);
  for (VertexId v = 1; v <= 6; ++v) EXPECT_EQ(g.Degree(v), 1);
}

TEST(Generators, CompleteGraphEdgeCount) {
  const Graph g = Complete(8);
  EXPECT_EQ(g.NumEdges(), 8 * 7 / 2);
  EXPECT_EQ(g.MaxDegree(), 7);
}

TEST(Generators, CompleteBipartiteIsTriangleFree) {
  const Graph g = CompleteBipartite(4, 6);
  EXPECT_EQ(g.NumEdges(), 24);
  EXPECT_EQ(CountTriangles(g), 0);
}

TEST(Generators, Grid2DCounts) {
  const Graph g = Grid2D(3, 4);
  EXPECT_EQ(g.NumVertices(), 12);
  EXPECT_EQ(g.NumEdges(), 3 * 3 + 2 * 4);  // horizontal + vertical
}

TEST(Generators, WheelHubConnectsToAllRim) {
  const Graph g = Wheel(9);
  EXPECT_EQ(g.Degree(8), 8);  // hub is last vertex
  EXPECT_EQ(g.NumEdges(), 16);
  EXPECT_EQ(CountTriangles(g), 8);
}

TEST(Generators, LollipopStructure) {
  const Graph g = Lollipop(5, 3);
  EXPECT_EQ(g.NumVertices(), 8);
  EXPECT_EQ(g.NumEdges(), 10 + 3);
  EXPECT_EQ(g.Degree(7), 1);  // end of the stick
}

TEST(Generators, GnmExactEdgeCount) {
  const Graph g = ErdosRenyiGnm(50, 200, 7);
  EXPECT_EQ(g.NumVertices(), 50);
  EXPECT_EQ(g.NumEdges(), 200);
}

TEST(Generators, GnmDeterministicInSeed) {
  const Graph a = ErdosRenyiGnm(40, 100, 5);
  const Graph b = ErdosRenyiGnm(40, 100, 5);
  bool equal = a.NumEdges() == b.NumEdges();
  a.ForEachEdge([&](VertexId u, VertexId v) {
    if (!b.HasEdge(u, v)) equal = false;
  });
  EXPECT_TRUE(equal);
}

TEST(Generators, GnpEdgeCountNearExpectation) {
  const VertexId n = 200;
  const double p = 0.1;
  const Graph g = ErdosRenyiGnp(n, p, 11);
  const double expected = p * n * (n - 1) / 2;
  EXPECT_GT(g.NumEdges(), expected * 0.8);
  EXPECT_LT(g.NumEdges(), expected * 1.2);
}

TEST(Generators, GnpZeroAndOneProbabilities) {
  EXPECT_EQ(ErdosRenyiGnp(20, 0.0, 3).NumEdges(), 0);
  EXPECT_EQ(ErdosRenyiGnp(10, 1.0, 3).NumEdges(), 45);
}

TEST(Generators, BarabasiAlbertDegreeFloor) {
  const Graph g = BarabasiAlbert(100, 3, 13);
  EXPECT_EQ(g.NumVertices(), 100);
  for (VertexId v = 0; v < 100; ++v) EXPECT_GE(g.Degree(v), 3);
  // Preferential attachment should produce a hub well above the minimum.
  EXPECT_GT(g.MaxDegree(), 10);
}

TEST(Generators, RMatRespectsScaleBound) {
  const Graph g = RMat(8, 500, 0.5, 0.2, 0.2, 17);
  EXPECT_EQ(g.NumVertices(), 256);
  EXPECT_LE(g.NumEdges(), 500);  // self-loops/duplicates removed
  EXPECT_GT(g.NumEdges(), 300);
}

TEST(Generators, WattsStrogatzKeepsDegreeMass) {
  const Graph g = WattsStrogatz(60, 3, 0.1, 19);
  EXPECT_EQ(g.NumVertices(), 60);
  // Rewiring keeps the edge count of the ring lattice.
  EXPECT_EQ(g.NumEdges(), 180);
}

TEST(Generators, WattsStrogatzBetaZeroIsLattice) {
  const Graph g = WattsStrogatz(20, 2, 0.0, 23);
  for (VertexId v = 0; v < 20; ++v) EXPECT_EQ(g.Degree(v), 4);
}

TEST(Generators, PlantedPartitionDenseBlocks) {
  const Graph g = PlantedPartition(4, 20, 0.8, 0.01, 29);
  EXPECT_EQ(g.NumVertices(), 80);
  // Within-block edges dominate: count block-internal edges.
  std::int64_t internal = 0;
  g.ForEachEdge([&](VertexId u, VertexId v) {
    if (u / 20 == v / 20) ++internal;
  });
  EXPECT_GT(internal, g.NumEdges() * 0.7);
}

TEST(Generators, CavemanCliquesPlusBridges) {
  const Graph g = Caveman(5, 6, 4, 31);
  EXPECT_EQ(g.NumVertices(), 30);
  EXPECT_EQ(g.NumEdges(), 5 * 15 + 4);
}

TEST(Generators, HierarchicalCommunitiesSize) {
  const Graph g = HierarchicalCommunities(2, 3, 5, 1, 37);
  EXPECT_EQ(g.NumVertices(), 45);  // 3^2 leaves of size 5
  // Leaf cliques exist: vertex 0's leaf is {0..4}.
  for (VertexId u = 0; u < 5; ++u)
    for (VertexId v = u + 1; v < 5; ++v) EXPECT_TRUE(g.HasEdge(u, v));
}

TEST(Generators, TriadicClosureOnlyAddsEdges) {
  const Graph base = BarabasiAlbert(60, 2, 41);
  const Graph closed = WithTriadicClosure(base, 100, 43);
  EXPECT_GE(closed.NumEdges(), base.NumEdges());
  bool superset = true;
  base.ForEachEdge([&](VertexId u, VertexId v) {
    if (!closed.HasEdge(u, v)) superset = false;
  });
  EXPECT_TRUE(superset);
  EXPECT_GT(GlobalClusteringCoefficient(closed),
            GlobalClusteringCoefficient(base));
}

TEST(Generators, WithRandomEdgesGrowsEdgeSet) {
  const Graph base = Path(30);
  const Graph grown = WithRandomEdges(base, 40, 47);
  EXPECT_GT(grown.NumEdges(), base.NumEdges());
  EXPECT_EQ(grown.NumVertices(), base.NumVertices());
}

// GraphBuilder::Build against a std::set reference: the zoo's edges fed in
// shuffled, in random orientation, with duplicates and self-loops mixed in,
// must give exactly the offsets and adjacency of the set's sorted pairs.
class BuilderDifferentialTest
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(BuilderDifferentialTest, BuildMatchesSetReference) {
  const Graph g = GetParam().make();
  const VertexId n = g.NumVertices();
  std::mt19937_64 rng(std::hash<std::string>{}(GetParam().name));
  std::vector<std::pair<VertexId, VertexId>> raw;
  g.ForEachEdge([&](VertexId u, VertexId v) {
    const int copies = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < copies; ++k) {
      raw.push_back(rng() % 2 == 0 ? std::make_pair(u, v)
                                   : std::make_pair(v, u));
    }
  });
  for (VertexId k = 0; n > 0 && k < n / 3 + 1; ++k) {
    const VertexId v = static_cast<VertexId>(rng() % n);
    raw.emplace_back(v, v);
  }
  std::shuffle(raw.begin(), raw.end(), rng);

  std::set<std::pair<VertexId, VertexId>> pairs;
  for (const auto& [u, v] : raw) {
    if (u == v) continue;
    pairs.emplace(u, v);
    pairs.emplace(v, u);
  }
  std::vector<std::int64_t> want_offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<VertexId> want_adj;
  for (const auto& [u, v] : pairs) {
    ++want_offsets[u + 1];
    want_adj.push_back(v);
  }
  for (VertexId v = 0; v < n; ++v) want_offsets[v + 1] += want_offsets[v];

  GraphBuilder builder(n);
  builder.AddEdges(raw);
  const Graph built = builder.Build();
  ASSERT_EQ(built.NumVertices(), n);
  EXPECT_EQ(testing_util::CsrOffsets(built), want_offsets);
  EXPECT_EQ(built.AdjArray(), want_adj);
  EXPECT_EQ(built.AdjArray(), g.AdjArray());
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, BuilderDifferentialTest,
    ::testing::ValuesIn(testing_util::GraphZoo()),
    [](const ::testing::TestParamInfo<testing_util::GraphCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace nucleus
