#include "nucleus/em/semi_external_truss.h"

#include <algorithm>

#include "nucleus/em/pair_file.h"

namespace nucleus {
namespace {

/// In-memory edge table in EdgeIndex id order: endpoints sorted
/// lexicographically with (u, v), u < v, plus per-vertex bases so the
/// forward edges of a scanned vertex get their ids in O(1).
struct EdgeTable {
  std::vector<std::pair<VertexId, VertexId>> endpoints;
  std::vector<std::int64_t> forward_base;  // id of u's first forward edge

  EdgeId Find(VertexId u, VertexId v) const {
    if (u > v) std::swap(u, v);
    const auto it = std::lower_bound(endpoints.begin(), endpoints.end(),
                                     std::make_pair(u, v));
    if (it == endpoints.end() || *it != std::make_pair(u, v)) {
      return kInvalidId;
    }
    return static_cast<EdgeId>(it - endpoints.begin());
  }
};

StatusOr<EdgeTable> LoadEdgeTable(AdjacencyFile& graph) {
  EdgeTable table;
  table.endpoints.reserve(static_cast<std::size_t>(graph.NumEdges()));
  table.forward_base.assign(
      static_cast<std::size_t>(graph.NumVertices()) + 1, 0);
  Status scan = graph.ScanEdges([&table](VertexId u, VertexId v) {
    table.endpoints.emplace_back(u, v);  // emitted in (u, v) lex order
    ++table.forward_base[u + 1];
  });
  if (!scan.ok()) return scan;
  for (std::size_t u = 0; u + 1 < table.forward_base.size(); ++u) {
    table.forward_base[u + 1] += table.forward_base[u];
  }
  return table;
}

/// One sequential triangle enumeration: calls f(e_uv, e_uw, e_vw) for every
/// triangle u < v < w. Forward edge ids of the scanned vertex come from
/// forward_base; the closing edge by binary search.
template <typename F>
Status ScanTriangles(AdjacencyFile& graph, const EdgeTable& table, F&& f) {
  return graph.ScanVertices([&](VertexId u,
                                std::span<const VertexId> neighbors) {
    // Forward slice of the (sorted) neighbor list.
    std::size_t first_forward = 0;
    while (first_forward < neighbors.size() &&
           neighbors[first_forward] <= u) {
      ++first_forward;
    }
    const std::int64_t base = table.forward_base[u];
    for (std::size_t i = first_forward; i < neighbors.size(); ++i) {
      for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
        const EdgeId closing = table.Find(neighbors[i], neighbors[j]);
        if (closing == kInvalidId) continue;
        const EdgeId e_uv =
            static_cast<EdgeId>(base + (i - first_forward));
        const EdgeId e_uw =
            static_cast<EdgeId>(base + (j - first_forward));
        f(e_uv, e_uw, closing);
      }
    }
  });
}

/// Support (triangle count) of every edge of `table` in one triangle scan.
StatusOr<std::vector<std::int32_t>> CountSupports(AdjacencyFile& graph,
                                                  const EdgeTable& table) {
  std::vector<std::int32_t> supports(table.endpoints.size(), 0);
  Status scan = ScanTriangles(graph, table, [&](EdgeId a, EdgeId b,
                                                EdgeId c) {
    ++supports[a];
    ++supports[b];
    ++supports[c];
  });
  if (!scan.ok()) return scan;
  return supports;
}

}  // namespace

StatusOr<std::vector<std::int32_t>> SemiExternalTriangleSupports(
    AdjacencyFile& graph) {
  auto table = LoadEdgeTable(graph);
  if (!table.ok()) return table.status();
  return CountSupports(graph, *table);
}

StatusOr<SemiExternalTrussResult> SemiExternalTrussDecomposition(
    AdjacencyFile& graph, const std::string& temp_dir) {
  SemiExternalTrussResult result;
  auto table_or = LoadEdgeTable(graph);
  if (!table_or.ok()) return table_or.status();
  const EdgeTable& table = *table_or;
  const std::int64_t m = static_cast<std::int64_t>(table.endpoints.size());

  auto supports_or = CountSupports(graph, table);
  if (!supports_or.ok()) return supports_or.status();
  std::vector<std::int32_t>& supports = *supports_or;

  // Wave-synchronous peel. States: 2 = alive, 1 = dying this wave,
  // 0 = dead (lambda final).
  result.peel.lambda.assign(m, 0);
  std::vector<char> state(m, 2);
  std::int64_t processed = 0;
  Lambda level = 0;
  while (processed < m) {
    // Kill sweep (in memory): alive edges at or below the level die now.
    bool any_dying = false;
    for (EdgeId e = 0; e < m; ++e) {
      if (state[e] == 2 && supports[e] <= level) {
        state[e] = 1;
        result.peel.lambda[e] = level;
        ++processed;
        any_dying = true;
      }
    }
    if (!any_dying) {
      ++level;
      continue;
    }
    // Charge sweep (one disk scan): a triangle dies in the wave where its
    // first edge dies; its still-alive edges each lose one support.
    ++result.waves;
    if (Status s = ScanTriangles(
            graph, table,
            [&](EdgeId a, EdgeId b, EdgeId c) {
              const EdgeId edges[3] = {a, b, c};
              int dying = 0;
              for (EdgeId e : edges) {
                if (state[e] == 0) return;  // died in an earlier wave
                dying += state[e] == 1;
              }
              if (dying == 0) return;
              for (EdgeId e : edges) {
                if (state[e] == 2) --supports[e];
              }
            });
        !s.ok()) {
      return s;
    }
    for (EdgeId e = 0; e < m; ++e) {
      if (state[e] == 1) state[e] = 0;
    }
  }
  for (EdgeId e = 0; e < m; ++e) {
    result.peel.max_lambda =
        std::max(result.peel.max_lambda, result.peel.lambda[e]);
  }

  // Hierarchy in one more triangle scan: each triangle is a K_s whose
  // minimum-lambda edges are unioned (strong triangle connectivity,
  // Definition 5) and whose other edges spill as (edge, min-edge) pairs.
  if (Status s = BuildSpilledSkeleton(
          result.peel, temp_dir,
          [&graph, &table](const KsSink& sink) {
            return ScanTriangles(graph, table,
                                 [&sink](EdgeId a, EdgeId b, EdgeId c) {
                                   const std::int32_t members[3] = {a, b, c};
                                   sink(members);
                                 });
          },
          &result.build, &result.num_adj, &result.io);
      !s.ok()) {
    return s;
  }
  result.io.Add(graph.stats());
  return result;
}

}  // namespace nucleus
