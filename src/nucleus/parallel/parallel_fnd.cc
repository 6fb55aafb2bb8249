#include "nucleus/parallel/parallel_fnd.h"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "nucleus/core/peeling.h"
#include "nucleus/dsf/concurrent_dsf.h"
#include "nucleus/parallel/parallel_peel.h"
#include "nucleus/parallel/thread_pool.h"
#include "nucleus/util/timer.h"

namespace nucleus {

template <typename Space>
FndResult FastNucleusDecompositionParallel(const Space& space,
                                           const ParallelConfig& config) {
  FndResult result;
  ThreadPool pool(config);
  const std::int64_t grain = config.ResolvedGrain();

  Timer timer;
  // (1,2) peels with the flat-array Peel, which the wave peel does not
  // beat at any thread count; the sub-nucleus pass below stays parallel.
  if constexpr (std::is_same_v<Space, VertexSpace>) {
    result.peel = Peel(space);
  } else {
    result.peel = PeelParallel(space, pool, grain);
  }
  result.peel_seconds = timer.Seconds();
  timer.Restart();

  const std::int64_t n = space.NumCliques();
  const std::vector<Lambda>& lambda = result.peel.lambda;

  // Concurrent sub-nucleus detection. Each superclique is visited once per
  // member; only the minimum-id member (the owner) processes it, so every
  // K_s contributes exactly once regardless of scheduling. ADJ pairs are
  // recorded as K_r-level (member, anchor) pairs per CHUNK — chunk
  // boundaries are pure functions of the grain, so the buffers concatenate
  // into the same ascending-owner order for every thread count.
  ConcurrentDisjointSet dsf(n);
  const std::int64_t num_chunks = n > 0 ? (n + grain - 1) / grain : 0;
  std::vector<std::vector<std::pair<CliqueId, CliqueId>>> chunk_adj(
      num_chunks);
  pool.ParallelFor(n, grain, [&](int, std::int64_t begin, std::int64_t end) {
    std::vector<std::pair<CliqueId, CliqueId>>& adj = chunk_adj[begin / grain];
    for (CliqueId u = static_cast<CliqueId>(begin); u < end; ++u) {
      space.ForEachSuperclique(u, [&](const CliqueId* members, int count) {
        CliqueId owner = members[0];
        Lambda min_lambda = lambda[members[0]];
        for (int i = 1; i < count; ++i) {
          owner = std::min(owner, members[i]);
          min_lambda = std::min(min_lambda, lambda[members[i]]);
        }
        if (owner != u) return;
        // The anchor is the minimum-id member at the superclique's minimum
        // lambda: all such members form one strongly connected sub-nucleus
        // piece (Alg. 8 line 15), and higher-lambda members connect to it
        // (Alg. 8 line 17).
        CliqueId anchor = kInvalidId;
        for (int i = 0; i < count; ++i) {
          const CliqueId m = members[i];
          if (lambda[m] == min_lambda && (anchor == kInvalidId || m < anchor)) {
            anchor = m;
          }
        }
        for (int i = 0; i < count; ++i) {
          const CliqueId m = members[i];
          if (lambda[m] == min_lambda) {
            if (m != anchor) dsf.Union(anchor, m);
          } else {
            adj.emplace_back(m, anchor);
          }
        }
      });
    }
  });

  // Canonical node numbering: one skeleton node per component, in
  // ascending minimum-member order (the min-id disjoint-set's roots).
  HierarchySkeleton& skeleton = result.build.skeleton;
  std::vector<std::int32_t>& comp = result.build.comp;
  comp.assign(n, kInvalidId);
  for (CliqueId u = 0; u < n; ++u) {
    if (dsf.Find(u) == u) comp[u] = skeleton.AddNode(lambda[u]);
  }
  pool.ParallelFor(n, grain, [&](int, std::int64_t begin, std::int64_t end) {
    for (CliqueId u = static_cast<CliqueId>(begin); u < end; ++u) {
      if (comp[u] == kInvalidId) comp[u] = comp[dsf.Find(u)];
    }
  });

  // Deterministic merge of the per-chunk ADJ buffers, resolved to skeleton
  // node ids.
  std::int64_t total_adj = 0;
  for (const auto& chunk : chunk_adj) {
    total_adj += static_cast<std::int64_t>(chunk.size());
  }
  std::vector<std::pair<std::int32_t, std::int32_t>> adj;
  adj.reserve(total_adj);
  for (const auto& chunk : chunk_adj) {
    for (const auto& [member, anchor] : chunk) {
      adj.emplace_back(comp[member], comp[anchor]);
    }
  }
  result.num_adj = total_adj;

  internal::FinishSkeleton(adj, result.peel.max_lambda, &result.build);
  result.build_seconds = timer.Seconds();
  return result;
}

template FndResult FastNucleusDecompositionParallel<VertexSpace>(
    const VertexSpace&, const ParallelConfig&);
template FndResult FastNucleusDecompositionParallel<EdgeSpace>(
    const EdgeSpace&, const ParallelConfig&);
template FndResult FastNucleusDecompositionParallel<TriangleSpace>(
    const TriangleSpace&, const ParallelConfig&);
template FndResult FastNucleusDecompositionParallel<GenericSpace>(
    const GenericSpace&, const ParallelConfig&);

}  // namespace nucleus
