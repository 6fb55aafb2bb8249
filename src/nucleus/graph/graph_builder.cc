#include "nucleus/graph/graph_builder.h"

#include <algorithm>

namespace nucleus {

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  NUCLEUS_CHECK(u >= 0 && v >= 0);
  if (u == v) return;  // self-loop
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
  if (v >= num_vertices_) num_vertices_ = v + 1;
}

void GraphBuilder::AddCanonicalEdges(
    std::span<const std::pair<VertexId, VertexId>> edges) {
  VertexId top = num_vertices_ - 1;
  for (const auto& [u, v] : edges) {
    NUCLEUS_CHECK(0 <= u && u < v);
    top = std::max(top, v);
  }
  edges_.insert(edges_.end(), edges.begin(), edges.end());
  num_vertices_ = top + 1;
}

void GraphBuilder::AddEdges(
    const std::vector<std::pair<VertexId, VertexId>>& edges) {
  for (const auto& [u, v] : edges) AddEdge(u, v);
}

void GraphBuilder::EnsureVertex(VertexId v) {
  NUCLEUS_CHECK(v >= 0);
  if (v >= num_vertices_) num_vertices_ = v + 1;
}

Graph GraphBuilder::Build() const {
  // Counting CSR: degree count, scatter both orientations of every recorded
  // pair, then sort each list and drop its duplicates, compacting the lists
  // leftwards in place.
  const VertexId n = num_vertices_;
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> adj(static_cast<std::size_t>(offsets[n]));
  {
    std::vector<std::int64_t> fill(offsets.begin(), offsets.end() - 1);
    for (const auto& [u, v] : edges_) {
      adj[fill[u]++] = v;
      adj[fill[v]++] = u;
    }
  }
  std::int64_t out = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto begin = adj.begin() + offsets[v];
    const auto end = adj.begin() + offsets[v + 1];
    // Lists scattered from input written in sorted order (WriteEdgeList,
    // most SNAP files) arrive sorted; the check is one pass.
    if (!std::is_sorted(begin, end)) std::sort(begin, end);
    const auto unique_end = std::unique(begin, end);
    if (out != offsets[v]) std::copy(begin, unique_end, adj.begin() + out);
    offsets[v] = out;
    out += unique_end - begin;
  }
  offsets[n] = out;
  adj.resize(static_cast<std::size_t>(out));
  adj.shrink_to_fit();
  return Graph::FromCsr(std::move(offsets), std::move(adj));
}

Graph GraphFromEdges(VertexId num_vertices,
                     const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder builder(num_vertices);
  builder.AddEdges(edges);
  return builder.Build();
}

Graph DisjointUnion(const std::vector<Graph>& graphs) {
  GraphBuilder builder;
  VertexId offset = 0;
  for (const Graph& g : graphs) {
    const VertexId n = g.NumVertices();
    builder.EnsureVertex(offset + n - 1 >= 0 ? offset + n - 1 : 0);
    g.ForEachEdge(
        [&](VertexId u, VertexId v) { builder.AddEdge(offset + u, offset + v); });
    offset += n;
  }
  if (offset > 0) builder.EnsureVertex(offset - 1);
  return builder.Build();
}

Graph InducedSubgraph(const Graph& g, const std::vector<VertexId>& vertices,
                      std::vector<VertexId>* old_to_new) {
  std::vector<VertexId> sorted = vertices;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  std::vector<VertexId> map(g.NumVertices(), kInvalidId);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    NUCLEUS_CHECK(sorted[i] >= 0 && sorted[i] < g.NumVertices());
    map[sorted[i]] = static_cast<VertexId>(i);
  }

  GraphBuilder builder(static_cast<VertexId>(sorted.size()));
  for (VertexId u : sorted) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v && map[v] != kInvalidId) builder.AddEdge(map[u], map[v]);
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return builder.Build();
}

}  // namespace nucleus
