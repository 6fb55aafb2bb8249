#include "nucleus/graph/graph.h"

#include <algorithm>
#include <string>

namespace nucleus {

Status ValidateCsr(std::span<const std::int64_t> offsets,
                   std::span<const VertexId> adj) {
  if (offsets.empty()) return Status::InvalidArgument("CSR offsets are empty");
  if (offsets.front() != 0) {
    return Status::InvalidArgument("CSR offsets do not start at 0");
  }
  if (offsets.back() != static_cast<std::int64_t>(adj.size())) {
    return Status::InvalidArgument(
        "CSR offsets do not end at the adjacency size");
  }
  const VertexId n = static_cast<VertexId>(offsets.size()) - 1;
  for (VertexId v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Status::InvalidArgument("CSR offsets not monotone at vertex " +
                                     std::to_string(v));
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    for (std::int64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId w = adj[i];
      if (w < 0 || w >= n) {
        return Status::InvalidArgument("vertex id out of range in CSR input");
      }
      if (w == v) return Status::InvalidArgument("self-loop in CSR input");
      if (i > offsets[v] && adj[i - 1] >= w) {
        return Status::InvalidArgument(
            "adjacency list not strictly increasing");
      }
    }
  }
  // Symmetry by a transpose walk, one cursor per list. Visiting u in
  // ascending order sends u to each neighbor's list in ascending order, so
  // list v must read exactly the sequence of u it receives; cursor[v] marks
  // how much of it has matched. No final "every cursor reached its list's
  // end" pass is needed: a completed walk made adj.size() matches, none past
  // its own list's end, and the lists hold adj.size() entries in all, so
  // each list matched in full.
  std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId u = 0; u < n; ++u) {
    for (std::int64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const VertexId v = adj[i];
      std::int64_t& c = cursor[v];
      if (c == offsets[v + 1] || adj[c] != u) {
        return Status::InvalidArgument("CSR input is not symmetric");
      }
      ++c;
    }
  }
  return Status::Ok();
}

Graph Graph::FromCsr(std::vector<std::int64_t> offsets,
                     std::vector<VertexId> adj) {
  const Status valid = ValidateCsr(offsets, adj);
  NUCLEUS_CHECK_MSG(valid.ok(), valid.message().c_str());
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  return g;
}

std::int64_t Graph::MaxDegree() const {
  std::int64_t best = 0;
  const VertexId n = NumVertices();
  for (VertexId v = 0; v < n; ++v) best = std::max(best, Degree(v));
  return best;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u < 0 || v < 0 || u >= NumVertices() || v >= NumVertices()) return false;
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

}  // namespace nucleus
