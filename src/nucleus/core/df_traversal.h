// DF-Traversal (paper Alg. 5 + SubNucleus Alg. 6): a single traversal that
// discovers the sub-(r,s) nuclei T_{r,s} in decreasing lambda order and
// stitches them into the hierarchy-skeleton with the root-forest (Alg. 7).
//
// Processing in decreasing lambda order means every structure adjacent to
// the sub-nucleus under construction is already in the skeleton, so its
// representative (greatest ancestor) is found by Find-r: if the
// representative's lambda is larger it becomes a child of the current
// sub-nucleus; if equal, the two are part of the same nucleus and are merged
// with Union-r after the traversal of the sub-nucleus completes.
#ifndef NUCLEUS_CORE_DF_TRAVERSAL_H_
#define NUCLEUS_CORE_DF_TRAVERSAL_H_

#include <queue>
#include <vector>

#include "nucleus/core/spaces.h"
#include "nucleus/core/types.h"

namespace nucleus {

namespace internal {

/// Alg. 6. Traverses the sub-nucleus of `start` (all K_r's of equal lambda
/// strongly K_s-connected to it, Definition 5), creates its skeleton node,
/// and links/merges the adjacent already-built structures.
template <typename Space>
void SubNucleus(const Space& space, CliqueId start,
                const std::vector<Lambda>& lambda, std::vector<char>* visited,
                std::vector<std::int32_t>* comp, HierarchySkeleton* skeleton,
                std::vector<std::int32_t>* marked,
                std::vector<std::int32_t>* merge, std::queue<CliqueId>* queue) {
  const Lambda k = lambda[start];
  const std::int32_t sn = skeleton->AddNode(k);
  marked->push_back(0);  // slot for the new node
  const std::int32_t epoch = sn + 1;  // unique, nonzero per SubNucleus call

  merge->clear();
  merge->push_back(sn);
  (*visited)[start] = 1;
  (*comp)[start] = sn;
  queue->push(start);

  while (!queue->empty()) {
    const CliqueId u = queue->front();
    queue->pop();
    space.ForEachSuperclique(u, [&](const CliqueId* members, int count) {
      // Only K_s's with lambda_{r,s}(C) == k connect the sub-nucleus
      // (Alg. 6 line 9); since lambda[u] == k this means no member below k.
      for (int i = 0; i < count; ++i) {
        if (lambda[members[i]] < k) return;
      }
      for (int i = 0; i < count; ++i) {
        const CliqueId v = members[i];
        if (v == u) continue;
        if (lambda[v] == k) {
          if (!(*visited)[v]) {
            (*visited)[v] = 1;
            (*comp)[v] = sn;
            queue->push(v);
          }
        } else {  // lambda[v] > k: v's sub-nucleus is already built
          // Alg. 6 lines 15-22 with the two marks kept distinct: the first
          // deduplicates Find-r calls per encountered sub-nucleus id, the
          // second deduplicates attach/merge per representative. (If
          // comp(v) is already its own root, its fresh first mark must not
          // suppress the attachment.)
          const std::int32_t s0 = (*comp)[v];
          if ((*marked)[s0] == epoch) continue;
          (*marked)[s0] = epoch;
          const std::int32_t s = skeleton->FindRoot(s0);
          if (s == sn || (s != s0 && (*marked)[s] == epoch)) continue;
          (*marked)[s] = epoch;
          if (skeleton->LambdaOf(s) > k) {
            skeleton->AttachChild(s, sn);
          } else {
            merge->push_back(s);  // equal lambda: same nucleus as sn
          }
        }
      }
    });
  }
  for (std::size_t i = 1; i < merge->size(); ++i) {
    skeleton->UnionR((*merge)[0], (*merge)[i]);
  }
}

}  // namespace internal

/// Alg. 5. Requires the peeling result; produces the hierarchy-skeleton.
template <typename Space>
SkeletonBuild DfTraversal(const Space& space, const PeelResult& peel) {
  SkeletonBuild build;
  const std::int64_t n = space.NumCliques();
  build.comp.assign(n, kInvalidId);
  std::vector<char> visited(n, 0);

  // Bucket ids by lambda so sub-nuclei are started in decreasing lambda
  // order without rescanning all K_r's per level.
  std::vector<std::int64_t> bin(peel.max_lambda + 2, 0);
  for (CliqueId u = 0; u < n; ++u) ++bin[peel.lambda[u] + 1];
  for (Lambda l = 0; l <= peel.max_lambda; ++l) bin[l + 1] += bin[l];
  std::vector<CliqueId> by_lambda(n);
  {
    std::vector<std::int64_t> fill(bin.begin(), bin.end() - 1);
    for (CliqueId u = 0; u < n; ++u) by_lambda[fill[peel.lambda[u]]++] = u;
  }

  std::vector<std::int32_t> marked;  // per-skeleton-node epoch stamps
  std::vector<std::int32_t> merge;
  std::queue<CliqueId> queue;
  for (std::int64_t i = n - 1; i >= 0; --i) {  // decreasing lambda
    const CliqueId u = by_lambda[i];
    if (!visited[u]) {
      internal::SubNucleus(space, u, peel.lambda, &visited, &build.comp,
                           &build.skeleton, &marked, &merge, &queue);
    }
  }

  build.AddRoot();
  return build;
}

extern template SkeletonBuild DfTraversal<VertexSpace>(const VertexSpace&,
                                                       const PeelResult&);
extern template SkeletonBuild DfTraversal<EdgeSpace>(const EdgeSpace&,
                                                     const PeelResult&);
extern template SkeletonBuild DfTraversal<TriangleSpace>(const TriangleSpace&,
                                                         const PeelResult&);

}  // namespace nucleus

#endif  // NUCLEUS_CORE_DF_TRAVERSAL_H_
