// Mutable edge accumulator that normalizes raw input into a Graph:
// drops self-loops and duplicate/reversed edges, sorts adjacency lists, and
// produces a symmetric CSR. Also provides structural combinators used by the
// generators and tests.
//
// Cost contract: AddEdge is amortized O(1) and stores one 8-byte pair per
// call (duplicates included). Build() is a counting CSR build: O(n + p)
// time plus a sort of each adjacency list not already sorted, for p
// recorded pairs, and it allocates only the output arrays and one array of
// n fill cursors; the recorded pairs are never copied or globally sorted.
#ifndef NUCLEUS_GRAPH_GRAPH_BUILDER_H_
#define NUCLEUS_GRAPH_GRAPH_BUILDER_H_

#include <span>
#include <utility>
#include <vector>

#include "nucleus/graph/graph.h"
#include "nucleus/util/common.h"

namespace nucleus {

class GraphBuilder {
 public:
  /// Creates a builder for at least `num_vertices` vertices; vertex ids seen
  /// in AddEdge grow the vertex count automatically.
  explicit GraphBuilder(VertexId num_vertices = 0)
      : num_vertices_(num_vertices) {
    NUCLEUS_CHECK(num_vertices >= 0);
  }

  /// Records an undirected edge. Self-loops are silently dropped; duplicates
  /// (in either orientation) are deduplicated at Build() time.
  void AddEdge(VertexId u, VertexId v);

  void AddEdges(const std::vector<std::pair<VertexId, VertexId>>& edges);

  /// Appends pairs already in the form AddEdge stores (0 <= u < v), as
  /// one block copy: the edge-list reader's lanes canonicalize in parallel.
  void AddCanonicalEdges(std::span<const std::pair<VertexId, VertexId>> edges);

  /// Ensures the built graph has at least `n` vertices (possibly isolated).
  void EnsureVertex(VertexId v);

  VertexId num_vertices() const { return num_vertices_; }
  std::int64_t num_recorded_edges() const {
    return static_cast<std::int64_t>(edges_.size());
  }

  /// Normalizes and materializes the graph. The builder may be reused
  /// afterwards (its recorded edges are preserved).
  Graph Build() const;

 private:
  VertexId num_vertices_;
  std::vector<std::pair<VertexId, VertexId>> edges_;  // canonical u < v
};

/// Builds a graph directly from an edge list (convenience wrapper).
Graph GraphFromEdges(VertexId num_vertices,
                     const std::vector<std::pair<VertexId, VertexId>>& edges);

/// Disjoint union: vertex ids of graphs[i] are offset by the total size of
/// the preceding graphs.
Graph DisjointUnion(const std::vector<Graph>& graphs);

/// Subgraph induced on `vertices` (need not be sorted; duplicates ignored).
/// Vertex i of the result corresponds to the i-th distinct id in `vertices`
/// (in sorted order). If `old_to_new` is non-null it receives the mapping
/// (kInvalidId for vertices outside the subgraph).
Graph InducedSubgraph(const Graph& g, const std::vector<VertexId>& vertices,
                      std::vector<VertexId>* old_to_new = nullptr);

}  // namespace nucleus

#endif  // NUCLEUS_GRAPH_GRAPH_BUILDER_H_
