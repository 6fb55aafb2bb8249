#include "nucleus/graph/graph.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/graph/generators.h"
#include "nucleus/graph/graph_builder.h"
#include "test_util.h"

namespace nucleus {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumVertices(), 0);
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_EQ(g.MaxDegree(), 0);
}

TEST(Graph, TriangleBasics) {
  const Graph g = GraphFromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.NumVertices(), 3);
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_EQ(g.MaxDegree(), 2);
}

TEST(Graph, NeighborsAreSortedAscending) {
  const Graph g = GraphFromEdges(6, {{3, 1}, {3, 5}, {3, 0}, {3, 4}});
  const auto nbrs = g.Neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 1);
  EXPECT_EQ(nbrs[2], 4);
  EXPECT_EQ(nbrs[3], 5);
}

TEST(Graph, HasEdgeOutOfRangeIsFalse) {
  const Graph g = GraphFromEdges(2, {{0, 1}});
  EXPECT_FALSE(g.HasEdge(-1, 0));
  EXPECT_FALSE(g.HasEdge(0, 5));
}

TEST(Graph, ForEachEdgeVisitsEachOnceCanonically) {
  const Graph g = GraphFromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  std::vector<std::pair<VertexId, VertexId>> seen;
  g.ForEachEdge([&](VertexId u, VertexId v) { seen.emplace_back(u, v); });
  EXPECT_EQ(seen, (std::vector<std::pair<VertexId, VertexId>>{
                      {0, 1}, {0, 3}, {1, 2}, {2, 3}}));
}

TEST(Graph, FromCsrRoundTrip) {
  const Graph g =
      Graph::FromCsr({0, 2, 4, 6}, {1, 2, 0, 2, 0, 1});  // triangle
  EXPECT_EQ(g.NumVertices(), 3);
  EXPECT_EQ(g.NumEdges(), 3);
}

TEST(GraphDeathTest, FromCsrRejectsAsymmetric) {
  EXPECT_DEATH(Graph::FromCsr({0, 1, 1}, {1}), "not symmetric");
}

TEST(GraphDeathTest, FromCsrRejectsSelfLoop) {
  EXPECT_DEATH(Graph::FromCsr({0, 1, 2}, {0, 1}), "self-loop");
}

TEST(GraphDeathTest, FromCsrRejectsUnsortedAdjacency) {
  EXPECT_DEATH(Graph::FromCsr({0, 2, 3, 4}, {2, 1, 0, 0}),
               "strictly increasing");
}

TEST(GraphDeathTest, FromCsrRejectsNonMonotoneOffsets) {
  EXPECT_DEATH(Graph::FromCsr({0, 2, 1, 2}, {1, 0}), "monotone");
}

// List 1's last entry (2) has no reverse entry: its cursor is never
// exhausted.
TEST(GraphDeathTest, FromCsrRejectsReverseEntryMissingAtListEnd) {
  EXPECT_DEATH(Graph::FromCsr({0, 1, 3, 3}, {1, 0, 2}), "not symmetric");
}

// Every vertex has in- and out-degree 1, but the pairs do not match.
TEST(GraphDeathTest, FromCsrRejectsMismatchedPairsWithMatchingCounts) {
  EXPECT_DEATH(Graph::FromCsr({0, 1, 2, 3, 4}, {2, 3, 1, 0}),
               "not symmetric");
}

// The rules as FromCsr checked them before the transpose walk: per-entry
// checks, then one binary search per entry for its reverse.
bool ReferenceValid(const std::vector<std::int64_t>& offsets,
                    const std::vector<VertexId>& adj) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != static_cast<std::int64_t>(adj.size())) {
    return false;
  }
  const VertexId n = static_cast<VertexId>(offsets.size()) - 1;
  for (VertexId v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) return false;
  }
  for (VertexId v = 0; v < n; ++v) {
    for (std::int64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (adj[i] < 0 || adj[i] >= n || adj[i] == v) return false;
      if (i > offsets[v] && adj[i - 1] >= adj[i]) return false;
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    for (std::int64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId w = adj[i];
      if (!std::binary_search(adj.begin() + offsets[w],
                              adj.begin() + offsets[w + 1], v)) {
        return false;
      }
    }
  }
  return true;
}

struct Csr {
  std::vector<std::int64_t> offsets;
  std::vector<VertexId> adj;

  VertexId n() const { return static_cast<VertexId>(offsets.size()) - 1; }
  VertexId OwnerOf(std::int64_t i) const {
    return static_cast<VertexId>(
        std::upper_bound(offsets.begin(), offsets.end(), i) -
        offsets.begin() - 1);
  }
  void Erase(std::int64_t i) {
    const VertexId u = OwnerOf(i);
    adj.erase(adj.begin() + i);
    for (VertexId v = u + 1; v <= n(); ++v) --offsets[v];
  }
  void Insert(VertexId u, VertexId w) {
    const auto at = std::lower_bound(adj.begin() + offsets[u],
                                     adj.begin() + offsets[u + 1], w);
    adj.insert(at, w);
    for (VertexId v = u + 1; v <= n(); ++v) ++offsets[v];
  }
};

// Applies one random mutation; some keep the CSR valid (dropping both
// directions of an edge), most break it. Breaking the offsets is allowed
// only as the last mutation, since the others index lists through them.
void Mutate(Csr* c, bool last, std::mt19937_64* rng) {
  const VertexId n = c->n();
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(*rng);
  };
  const std::int64_t m = static_cast<std::int64_t>(c->adj.size());
  const std::int64_t mutation = pick(0, 8);
  switch (mutation) {
    case 0:  // drop one direction
      if (m > 0) c->Erase(pick(0, m - 1));
      break;
    case 1: {  // drop both directions
      if (m == 0) break;
      const std::int64_t i = pick(0, m - 1);
      const VertexId u = c->OwnerOf(i);
      const VertexId v = c->adj[i];
      c->Erase(i);
      const auto begin = c->adj.begin() + c->offsets[v];
      const auto end = c->adj.begin() + c->offsets[v + 1];
      const auto it = std::lower_bound(begin, end, u);
      if (it != end && *it == u) c->Erase(it - c->adj.begin());
      break;
    }
    case 2: {  // retarget an entry, keeping its list sorted
      if (m == 0) break;
      const std::int64_t i = pick(0, m - 1);
      const VertexId u = c->OwnerOf(i);
      const std::int64_t lo = i > c->offsets[u] ? c->adj[i - 1] + 1 : 0;
      const std::int64_t hi =
          i + 1 < c->offsets[u + 1] ? c->adj[i + 1] - 1 : n - 1;
      if (hi > lo) {
        VertexId w = c->adj[i];
        while (w == c->adj[i]) w = static_cast<VertexId>(pick(lo, hi));
        c->adj[i] = w;
      }
      break;
    }
    case 3:  // break monotone offsets at an interior vertex
      if (last && n >= 2) {
        const VertexId v = static_cast<VertexId>(pick(1, n - 1));
        c->offsets[v] = c->offsets[v + 1] + pick(1, 3);
      }
      break;
    case 4:  // add a self-loop
      if (n >= 1) {
        const VertexId u = static_cast<VertexId>(pick(0, n - 1));
        c->Insert(u, u);
      }
      break;
    case 6:    // drop one down-entry (w < owner) only
    case 7: {  // drop one up-entry (w > owner) only
      std::vector<std::int64_t> entries;
      for (std::int64_t i = 0; i < m; ++i) {
        const VertexId u = c->OwnerOf(i);
        if (c->adj[i] != u && (c->adj[i] < u) == (mutation == 6)) {
          entries.push_back(i);
        }
      }
      if (!entries.empty()) {
        c->Erase(entries[pick(0, static_cast<std::int64_t>(entries.size()) -
                                    1)]);
      }
      break;
    }
    case 8: {  // move an entry to a list where it points the other way
      if (m == 0) break;
      const std::int64_t i = pick(0, m - 1);
      const VertexId u = c->OwnerOf(i);
      const VertexId w = c->adj[i];
      if (w == u) break;
      // Up-entries move above w (becoming down-entries), down-entries below.
      const std::int64_t lo = w > u ? w + 1 : 0;
      const std::int64_t hi = w > u ? n - 1 : w - 1;
      if (lo > hi) break;
      const VertexId x = static_cast<VertexId>(pick(lo, hi));
      const auto begin = c->adj.begin() + c->offsets[x];
      const auto end = c->adj.begin() + c->offsets[x + 1];
      if (x == u || std::binary_search(begin, end, w)) break;
      c->Erase(i);
      c->Insert(x, w);
      break;
    }
    default:  // add one direction of a new edge
      if (n >= 2) {
        const VertexId u = static_cast<VertexId>(pick(0, n - 1));
        const VertexId w = static_cast<VertexId>(pick(0, n - 1));
        const auto begin = c->adj.begin() + c->offsets[u];
        const auto end = c->adj.begin() + c->offsets[u + 1];
        if (u != w && !std::binary_search(begin, end, w)) c->Insert(u, w);
      }
      break;
  }
}

TEST(ValidateCsr, AgreesWithBinarySearchReferenceOnMutations) {
  std::mt19937_64 rng(12345);
  const std::vector<Graph> bases = {
      Graph(),           Path(2),
      Complete(5),       Star(6),
      Cycle(9),          ErdosRenyiGnm(30, 80, 3),
      BarabasiAlbert(40, 3, 5), RMat(6, 150, 0.5, 0.2, 0.2, 7),
  };
  int valid = 0;
  int invalid = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const Graph& base = bases[static_cast<std::size_t>(trial) % bases.size()];
    Csr c{testing_util::CsrOffsets(base), base.AdjArray()};
    const int mutations = 1 + trial % 3;
    for (int k = 0; k < mutations; ++k) {
      Mutate(&c, k + 1 == mutations, &rng);
    }
    const bool expected = ReferenceValid(c.offsets, c.adj);
    const Status got = ValidateCsr(c.offsets, c.adj);
    ASSERT_EQ(got.ok(), expected) << "trial " << trial << ": "
                                  << got.message();
    ++(expected ? valid : invalid);
  }
  EXPECT_GT(valid, 100);
  EXPECT_GT(invalid, 1000);
}

TEST(ValidateCsr, NamesTheViolatedRule) {
  EXPECT_TRUE(ValidateCsr(std::vector<std::int64_t>{0, 2, 4, 6},
                          std::vector<VertexId>{1, 2, 0, 2, 0, 1})
                  .ok());
  const auto message = [](std::vector<std::int64_t> offsets,
                          std::vector<VertexId> adj) {
    const Status s = ValidateCsr(offsets, adj);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    return s.message();
  };
  EXPECT_NE(message({}, {}).find("empty"), std::string::npos);
  EXPECT_NE(message({1, 1}, {}).find("start"), std::string::npos);
  EXPECT_NE(message({0, 1}, {}).find("end"), std::string::npos);
  EXPECT_NE(message({0, 1, 1}, {5}).find("out of range"), std::string::npos);
  EXPECT_NE(message({0, 1, 2}, {0, 1}).find("self-loop"), std::string::npos);
  EXPECT_NE(message({0, 2, 3, 4}, {2, 1, 0, 0}).find("strictly increasing"),
            std::string::npos);
  EXPECT_NE(message({0, 1, 1}, {1}).find("not symmetric"), std::string::npos);
  // A down-entry with no up-entry: the half walk matches nothing, and only
  // the up/down count tells.
  EXPECT_NE(message({0, 0, 1}, {0}).find("not symmetric"), std::string::npos);
}

TEST(GraphBuilder, DropsSelfLoopsAndDuplicates) {
  GraphBuilder b(3);
  b.AddEdge(0, 0);  // self-loop ignored
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate in reverse orientation
  b.AddEdge(0, 1);  // exact duplicate
  const Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.Degree(0), 1);
}

TEST(GraphBuilder, GrowsVertexCountFromIds) {
  GraphBuilder b;
  b.AddEdge(2, 9);
  const Graph g = b.Build();
  EXPECT_EQ(g.NumVertices(), 10);
  EXPECT_EQ(g.Degree(5), 0);
}

TEST(GraphBuilder, EnsureVertexCreatesIsolated) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.EnsureVertex(4);
  const Graph g = b.Build();
  EXPECT_EQ(g.NumVertices(), 5);
  EXPECT_EQ(g.Degree(4), 0);
}

TEST(GraphBuilder, BuildIsRepeatable) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const Graph g1 = b.Build();
  const Graph g2 = b.Build();
  EXPECT_EQ(g1.NumEdges(), g2.NumEdges());
  EXPECT_EQ(g1.NumVertices(), g2.NumVertices());
}

TEST(DisjointUnion, OffsetsVertexIds) {
  const Graph g = DisjointUnion(
      {GraphFromEdges(3, {{0, 1}, {1, 2}}), GraphFromEdges(2, {{0, 1}})});
  EXPECT_EQ(g.NumVertices(), 5);
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_TRUE(g.HasEdge(3, 4));
  EXPECT_FALSE(g.HasEdge(2, 3));
}

TEST(DisjointUnion, EmptyListYieldsEmptyGraph) {
  const Graph g = DisjointUnion({});
  EXPECT_EQ(g.NumVertices(), 0);
}

TEST(InducedSubgraph, KeepsOnlyInternalEdges) {
  const Graph g =
      GraphFromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 3}});
  std::vector<VertexId> map;
  const Graph sub = InducedSubgraph(g, {1, 2, 3}, &map);
  EXPECT_EQ(sub.NumVertices(), 3);
  EXPECT_EQ(sub.NumEdges(), 3);  // 1-2, 2-3, 1-3
  EXPECT_EQ(map[1], 0);
  EXPECT_EQ(map[2], 1);
  EXPECT_EQ(map[3], 2);
  EXPECT_EQ(map[0], kInvalidId);
  EXPECT_EQ(map[4], kInvalidId);
}

TEST(InducedSubgraph, DeduplicatesAndSortsSelection) {
  const Graph g = GraphFromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph sub = InducedSubgraph(g, {3, 1, 3, 2});
  EXPECT_EQ(sub.NumVertices(), 3);
  EXPECT_EQ(sub.NumEdges(), 2);
}

}  // namespace
}  // namespace nucleus
