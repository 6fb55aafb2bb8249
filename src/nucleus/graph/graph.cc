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
  std::int64_t up = 0;  // entries (u, v) with v > u
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
      up += w > v;
    }
  }
  // Symmetry by a half transpose walk over the up-entries. Visiting u in
  // ascending order sends u to each larger neighbor v in ascending order,
  // and list v's down-entries (those below v) sit at its front in the same
  // order, so list v must read exactly the sequence it receives; cursor[v]
  // counts how much of it has matched. A completed walk matched every
  // up-entry to a distinct down-entry, so it remains to require as many
  // down-entries as up-entries: then each down-entry has its reverse too.
  std::vector<std::int32_t> cursor(static_cast<std::size_t>(n), 0);
  for (VertexId u = 0; u < n; ++u) {
    const std::int64_t end = offsets[u + 1];
    std::int64_t i = std::upper_bound(adj.begin() + offsets[u],
                                      adj.begin() + end, u) -
                     adj.begin();
    for (; i < end; ++i) {
      const VertexId v = adj[i];
      std::int32_t& c = cursor[v];
      if (offsets[v] + c == offsets[v + 1] || adj[offsets[v] + c] != u) {
        return Status::InvalidArgument("CSR input is not symmetric");
      }
      ++c;
    }
  }
  if (2 * up != static_cast<std::int64_t>(adj.size())) {
    return Status::InvalidArgument("CSR input is not symmetric");
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
