// Immutable undirected simple graph in CSR (compressed sparse row) form.
//
// This is the substrate every decomposition in the library runs on. The
// paper's graphs are "undirected, unattributed" (Section 1.1); directions of
// input edges are dropped, self-loops and duplicate edges removed, by
// GraphBuilder before a Graph is materialized.
//
// Cost contract: FromCsr validates its input in O(n + m) time with one extra
// array of n cursors; no check is ever skipped, in any build type.
#ifndef NUCLEUS_GRAPH_GRAPH_H_
#define NUCLEUS_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "nucleus/util/common.h"
#include "nucleus/util/status.h"

namespace nucleus {

class Graph {
 public:
  /// Empty graph.
  Graph() : offsets_(1, 0) {}

  /// Takes ownership of a CSR structure. Aborts unless ValidateCsr accepts
  /// it.
  static Graph FromCsr(std::vector<std::int64_t> offsets,
                       std::vector<VertexId> adj);

  VertexId NumVertices() const {
    return static_cast<VertexId>(offsets_.size()) - 1;
  }

  /// Number of undirected edges (each stored twice internally).
  std::int64_t NumEdges() const {
    return static_cast<std::int64_t>(adj_.size()) / 2;
  }

  std::int64_t Degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  std::int64_t MaxDegree() const;

  /// Neighbors of v in strictly increasing order.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adj_.data() + offsets_[v],
            static_cast<std::size_t>(Degree(v))};
  }

  /// True iff the undirected edge {u, v} exists. O(log deg(u)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// Offset of v's adjacency slice inside AdjArray(). Lets index structures
  /// (EdgeIndex) keep arrays aligned entry-for-entry with the adjacency.
  std::int64_t AdjOffset(VertexId v) const { return offsets_[v]; }

  /// The full flattened adjacency array (size 2 * NumEdges()).
  const std::vector<VertexId>& AdjArray() const { return adj_; }

  /// Iterates each undirected edge once as (u, v) with u < v.
  template <typename F>
  void ForEachEdge(F&& f) const {
    const VertexId n = NumVertices();
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : Neighbors(u)) {
        if (u < v) f(u, v);
      }
    }
  }

 private:
  std::vector<std::int64_t> offsets_;  // size NumVertices() + 1
  std::vector<VertexId> adj_;          // size 2 * NumEdges()
};

/// Checks that (offsets, adj) is a valid CSR for Graph::FromCsr: offsets is
/// non-empty and monotone with offsets.front() == 0 and offsets.back() ==
/// adj.size(); every id is in [0, n); every adjacency list is strictly
/// increasing (sorted, no duplicates, no self-loops); and the structure is
/// symmetric. O(n + m) time, O(n) extra space. The message names the first
/// violated rule ("self-loop", "strictly increasing", "not symmetric", ...).
Status ValidateCsr(std::span<const std::int64_t> offsets,
                   std::span<const VertexId> adj);

}  // namespace nucleus

#endif  // NUCLEUS_GRAPH_GRAPH_H_
