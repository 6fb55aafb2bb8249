#include "nucleus/core/peeling.h"

#include <algorithm>

namespace nucleus {

template <>
PeelResult Peel<VertexSpace>(const VertexSpace& space) {
  const Graph& g = space.graph();
  const VertexId n = g.NumVertices();
  // deg[v] is v's current degree while v is queued and its lambda once
  // popped, so it becomes the result's lambda array in place.
  std::vector<std::int32_t> deg(n);
  std::int32_t max_deg = 0;
  for (VertexId v = 0; v < n; ++v) {
    deg[v] = static_cast<std::int32_t>(g.Degree(v));
    max_deg = std::max(max_deg, deg[v]);
  }
  // bin[d]: first position of degree d in vert; pos[v]: v's position.
  std::vector<std::int32_t> bin(static_cast<std::size_t>(max_deg) + 1, 0);
  for (VertexId v = 0; v < n; ++v) ++bin[deg[v]];
  std::int32_t start = 0;
  for (std::int32_t& b : bin) {
    const std::int32_t count = b;
    b = start;
    start += count;
  }
  std::vector<std::int32_t> pos(n);
  std::vector<VertexId> vert(n);
  for (VertexId v = 0; v < n; ++v) {
    pos[v] = bin[deg[v]]++;
    vert[pos[v]] = v;
  }
  for (std::int32_t d = max_deg; d > 0; --d) bin[d] = bin[d - 1];
  bin[0] = 0;

  PeelResult result;
  for (std::int32_t i = 0; i < n; ++i) {
    const VertexId v = vert[i];
    const std::int32_t k = deg[v];
    result.max_lambda = std::max(result.max_lambda, k);
    for (const VertexId w : g.Neighbors(v)) {
      const std::int32_t dw = deg[w];
      if (dw <= k) continue;
      // Swap w with the first vertex of its bucket, then shrink the bucket
      // from the front: w moves down one degree. That front slot must still
      // be queued (the queue's Decrement precondition).
      const std::int32_t front = bin[dw];
      NUCLEUS_CHECK(front > i);
      const VertexId x = vert[front];
      if (x != w) {
        const std::int32_t pw = pos[w];
        pos[w] = front;
        vert[front] = w;
        pos[x] = pw;
        vert[pw] = x;
      }
      ++bin[dw];
      deg[w] = dw - 1;
    }
  }
  result.lambda = std::move(deg);
  return result;
}

template std::vector<std::int32_t> ComputeSupports<VertexSpace>(
    const VertexSpace&);
template std::vector<std::int32_t> ComputeSupports<EdgeSpace>(
    const EdgeSpace&);
template std::vector<std::int32_t> ComputeSupports<TriangleSpace>(
    const TriangleSpace&);
template PeelResult Peel<EdgeSpace>(const EdgeSpace&);
template PeelResult Peel<TriangleSpace>(const TriangleSpace&);

}  // namespace nucleus
