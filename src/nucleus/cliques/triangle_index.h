// Materialized triangle enumeration: the K_3 substrate of the (3,4)-nucleus
// decomposition.
//
// Besides per-triangle vertex/edge triples, the index stores for every edge
// the sorted list of (third vertex, triangle id) pairs of the triangles
// containing it. Three-way merging those lists for a triangle's three edges
// enumerates the K4s containing the triangle and yields the ids of the
// other three member triangles of each K4 with no hash lookups — the inner
// loop of the (3,4) peeling and traversal (TriangleSpace::
// ForEachSuperclique in core/spaces.h).
#ifndef NUCLEUS_CLIQUES_TRIANGLE_INDEX_H_
#define NUCLEUS_CLIQUES_TRIANGLE_INDEX_H_

#include <array>
#include <span>
#include <vector>

#include "nucleus/cliques/edge_index.h"
#include "nucleus/graph/graph.h"
#include "nucleus/util/common.h"

namespace nucleus {

class TriangleIndex {
 public:
  /// An entry of an edge's triangle list: the triangle `tid` consists of the
  /// edge's two endpoints plus `third`.
  struct ThirdEntry {
    VertexId third;
    TriangleId tid;
  };

  /// Enumerates all triangles. O(sum over edges of min-degree endpoints).
  static TriangleIndex Build(const Graph& g, const EdgeIndex& edges);

  /// Parallel enumeration: a counting pass and a placement pass over
  /// edges, then per-edge list sorting in parallel. Triangle ids are
  /// positional ((uv-edge id, third vertex) lexicographic, the serial
  /// enumeration order), so the output is bit-identical to the serial
  /// Build for every thread count / grain. As with EdgeIndex, the pool
  /// overload lets Decompose reuse one pool across both index builds.
  static TriangleIndex Build(const Graph& g, const EdgeIndex& edges,
                             const ParallelConfig& parallel);
  static TriangleIndex Build(const Graph& g, const EdgeIndex& edges,
                             ThreadPool& pool, std::int64_t grain);

  TriangleId NumTriangles() const {
    return static_cast<TriangleId>(vertices_.size());
  }

  /// Vertices (u, v, w) with u < v < w.
  const std::array<VertexId, 3>& Vertices(TriangleId t) const {
    return vertices_[t];
  }

  /// Edge ids ({u,v}, {u,w}, {v,w}).
  const std::array<EdgeId, 3>& Edges(TriangleId t) const { return edges_[t]; }

  /// Triangles containing edge e, sorted by third vertex.
  std::span<const ThirdEntry> EdgeTriangles(EdgeId e) const {
    return {list_.data() + offsets_[e],
            static_cast<std::size_t>(offsets_[e + 1] - offsets_[e])};
  }

  /// Number of triangles containing edge e (its (2,3) support).
  std::int64_t EdgeSupport(EdgeId e) const {
    return offsets_[e + 1] - offsets_[e];
  }

  /// Id of the triangle on vertices {u, v, w}; kInvalidId if absent.
  TriangleId GetTriangleId(const Graph& g, const EdgeIndex& edges, VertexId u,
                           VertexId v, VertexId w) const;

  /// Calls f(x, t_uvx, t_uwx, t_vwx) for every K4 {u,v,w,x} containing
  /// triangle t = {u,v,w}; the three arguments after x are the ids of the
  /// K4's other member triangles.
  template <typename F>
  void ForEachK4(TriangleId t, F&& f) const {
    const auto& e = edges_[t];
    const auto l0 = EdgeTriangles(e[0]);
    const auto l1 = EdgeTriangles(e[1]);
    const auto l2 = EdgeTriangles(e[2]);
    std::size_t i = 0;
    std::size_t j = 0;
    std::size_t k = 0;
    while (i < l0.size() && j < l1.size() && k < l2.size()) {
      const VertexId a = l0[i].third;
      const VertexId b = l1[j].third;
      const VertexId c = l2[k].third;
      if (a == b && b == c) {
        f(a, l0[i].tid, l1[j].tid, l2[k].tid);
        ++i;
        ++j;
        ++k;
      } else {
        // Advance the smallest cursor(s).
        const VertexId m = a < b ? (a < c ? a : c) : (b < c ? b : c);
        if (a == m) ++i;
        if (b == m) ++j;
        if (c == m) ++k;
      }
    }
  }

  /// Number of K4s containing triangle t (its (3,4) support).
  std::int64_t TriangleSupport(TriangleId t) const;

  /// Total number of K4s in the graph (each counted once).
  std::int64_t CountK4s() const;

 private:
  std::vector<std::array<VertexId, 3>> vertices_;
  std::vector<std::array<EdgeId, 3>> edges_;
  std::vector<std::int64_t> offsets_;  // per edge, into list_
  std::vector<ThirdEntry> list_;       // size 3 * NumTriangles()
};

}  // namespace nucleus

#endif  // NUCLEUS_CLIQUES_TRIANGLE_INDEX_H_
