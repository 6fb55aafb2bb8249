#include "nucleus/core/lcps.h"

#include <algorithm>
#include <vector>

#include "nucleus/util/bucket_queue.h"

namespace nucleus {

SkeletonBuild LcpsKCoreHierarchy(const Graph& g, const PeelResult& peel) {
  SkeletonBuild build;
  const VertexId n = g.NumVertices();
  const std::vector<Lambda>& lambda = peel.lambda;
  build.comp.assign(n, kInvalidId);
  HierarchySkeleton& skeleton = build.skeleton;

  std::vector<char> visited(n, 0);

  // One frontier reused across components: it drains completely before the
  // next start, and reusing it avoids re-allocating max_lambda + 1 buckets
  // per component (graphs with many tiny components would pay dearly).
  MaxBucketFrontier frontier(std::max<Lambda>(peel.max_lambda, 0));
  for (VertexId start = 0; start < n; ++start) {
    if (visited[start]) continue;
    frontier.Push(start, lambda[start]);
    std::int32_t cursor = kInvalidId;  // the root, which AddRoot appends
    Lambda cursor_level = kRootLambda;

    while (!frontier.Empty()) {
      std::int32_t priority = 0;
      const VertexId v = frontier.PopMax(&priority);
      if (visited[v]) continue;  // a stale lower-priority duplicate
      visited[v] = 1;

      // Climb to the level the search reached v at (never below level 0:
      // priorities are lambdas, so >= 0)...
      while (cursor_level > priority) {
        cursor = skeleton.Parent(cursor);
        --cursor_level;
      }
      // ...then descend to v's own lambda, opening one node per level.
      while (cursor_level < lambda[v]) {
        const std::int32_t child = skeleton.AddNode(cursor_level + 1);
        if (cursor != kInvalidId) skeleton.SetParent(child, cursor);
        cursor = child;
        ++cursor_level;
      }
      // priority <= lambda[v], so the cursor now sits exactly at lambda[v].
      build.comp[v] = cursor;
      for (VertexId w : g.Neighbors(v)) {
        if (!visited[w]) {
          frontier.Push(w, std::min(lambda[v], lambda[w]));
        }
      }
    }
  }
  build.AddRoot();
  return build;
}

}  // namespace nucleus
