// The generic peeling algorithm (paper Alg. 1, "Set-lambda"): computes the
// maximum k-(r,s) number lambda_s(u) of every K_r by repeatedly processing
// an unprocessed K_r of minimum K_s-degree and decrementing the degrees of
// the unprocessed co-members of its supercliques.
//
// For (1,2) this is exactly the Batagelj-Zaversnik k-core algorithm; for
// (2,3) the standard k-truss support peeling; for (3,4) the four-clique
// peeling of the nucleus decomposition paper.
#ifndef NUCLEUS_CORE_PEELING_H_
#define NUCLEUS_CORE_PEELING_H_

#include <vector>

#include "nucleus/core/spaces.h"
#include "nucleus/core/types.h"
#include "nucleus/util/bucket_queue.h"

namespace nucleus {

/// Initial K_s-degrees (supports): supports[u] = number of K_s's containing
/// the K_r u.
template <typename Space>
std::vector<std::int32_t> ComputeSupports(const Space& space) {
  std::vector<std::int32_t> supports(space.NumCliques(), 0);
  for (CliqueId u = 0; u < space.NumCliques(); ++u) {
    std::int32_t count = 0;
    space.ForEachSuperclique(u, [&count](const CliqueId*, int) { ++count; });
    supports[u] = count;
  }
  return supports;
}

// The parallel support computation (ComputeSupportsParallel) lives in
// parallel/parallel_peel.h with the rest of the threaded peeling phase; it
// runs over the shared ThreadPool and stays bit-identical to
// ComputeSupports.

/// Alg. 1. Runs in O(R_r + sum_u omega_r(u) d(u)^{s-r}) as analyzed in the
/// paper's Section 3.3. (1,2) has its own flat-array definition below.
template <typename Space>
PeelResult Peel(const Space& space) {
  PeelResult result;
  const std::int64_t n = space.NumCliques();
  result.lambda.assign(n, 0);

  PeelingBucketQueue queue;
  queue.Init(ComputeSupports(space));

  while (!queue.Empty()) {
    std::int32_t value = 0;
    const CliqueId u = queue.PopMin(&value);
    result.lambda[u] = value;
    if (value > result.max_lambda) result.max_lambda = value;
    space.ForEachSuperclique(u, [&](const CliqueId* members, int count) {
      // Skip supercliques that contain an already-processed K_r (Alg. 1
      // line 8); they were accounted for when that K_r was processed.
      for (int i = 0; i < count; ++i) {
        if (members[i] != u && queue.Popped(members[i])) return;
      }
      for (int i = 0; i < count; ++i) {
        const CliqueId v = members[i];
        if (v != u && queue.Value(v) > value) queue.Decrement(v);
      }
    });
  }
  return result;
}

/// Alg. 1 for (1,2), where it is exactly the Batagelj-Zaversnik k-core
/// algorithm: degrees come straight from the CSR offsets, and the bucket
/// queue is three flat int32 arrays (bucket starts, positions and the
/// vertex order). A vertex's neighbor w is charged iff its current degree
/// exceeds the popped degree k: every popped vertex sits at its final
/// degree <= k, so that one test replaces both the popped-member scan and
/// the queue's bookkeeping. O(n + m) time; lambda identical to the generic
/// peel.
template <>
PeelResult Peel<VertexSpace>(const VertexSpace& space);

extern template std::vector<std::int32_t> ComputeSupports<VertexSpace>(
    const VertexSpace&);
extern template std::vector<std::int32_t> ComputeSupports<EdgeSpace>(
    const EdgeSpace&);
extern template std::vector<std::int32_t> ComputeSupports<TriangleSpace>(
    const TriangleSpace&);
extern template PeelResult Peel<EdgeSpace>(const EdgeSpace&);
extern template PeelResult Peel<TriangleSpace>(const TriangleSpace&);

}  // namespace nucleus

#endif  // NUCLEUS_CORE_PEELING_H_
