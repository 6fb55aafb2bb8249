// FastNucleusDecomposition (paper Alg. 8) and BuildHierarchy (Alg. 9):
// the traversal-avoiding algorithm, the paper's best performer for (2,3)
// and (3,4) — faster even than the hypothetical best traversal (Table 5).
//
// During peeling, instead of ignoring supercliques that contain processed
// K_r's, the algorithm harvests them for connectivity information: the
// processed member w of minimum lambda either has lambda equal to the K_r
// being processed — in which case the two belong to the same (non-maximal)
// sub-nucleus T*_{r,s} and are united in the root-forest — or a smaller
// lambda, in which case the pair of sub-nuclei is appended to the ADJ list.
// A binned pass over ADJ in decreasing lambda order then assembles the
// hierarchy-skeleton exactly as DF-Traversal would, with no traversal.
#ifndef NUCLEUS_CORE_FAST_NUCLEUS_H_
#define NUCLEUS_CORE_FAST_NUCLEUS_H_

#include <utility>
#include <vector>

#include "nucleus/core/peeling.h"
#include "nucleus/core/spaces.h"
#include "nucleus/core/types.h"
#include "nucleus/util/bucket_queue.h"
#include "nucleus/util/status.h"
#include "nucleus/util/timer.h"

namespace nucleus {

struct FndResult {
  PeelResult peel;
  SkeletonBuild build;
  /// |c_down(T*_{r,s})|: number of recorded higher-to-lower-lambda
  /// sub-nucleus connections (the ADJ list size, Table 3's last columns).
  std::int64_t num_adj = 0;
  double peel_seconds = 0.0;   // extended peeling (Alg. 8 lines 1-19)
  double build_seconds = 0.0;  // BuildHierarchy post-processing (Alg. 9)
};

/// Intermediate state after the extended peeling of Alg. 8 (lines 1-19),
/// before BuildHierarchy: the disjoint-set forest of non-maximal sub-nuclei
/// T*_{r,s} plus the recorded higher-to-lower-lambda ADJ connections.
/// Exposed so ablation benchmarks can time alternative post-processing
/// strategies on identical inputs.
struct FndPeelState {
  PeelResult peel;
  HierarchySkeleton skeleton;
  std::vector<std::int32_t> comp;
  std::vector<std::pair<std::int32_t, std::int32_t>> adj;
};

namespace internal {

/// Alg. 9's level loop. For each level from max_lambda down to 0,
/// `scan_bin(level, visit)` calls visit(s, t) on every ADJ pair whose lower
/// side t has lambda `level` and returns a Status (a failure stops the loop).
/// Higher-lambda roots attach under t; equal ones merge after the level.
template <typename ScanBin>
Status ConsumeBins(Lambda max_lambda, HierarchySkeleton* skeleton,
                   ScanBin&& scan_bin) {
  std::vector<std::pair<std::int32_t, std::int32_t>> merge;
  for (Lambda level = max_lambda; level >= 0; --level) {
    merge.clear();
    Status status = scan_bin(level, [&](std::int32_t s0, std::int32_t t0) {
      const std::int32_t s = skeleton->FindRoot(s0);
      const std::int32_t t = skeleton->FindRoot(t0);
      if (s == t) return;
      NUCLEUS_CHECK(skeleton->LambdaOf(t) == level);
      NUCLEUS_CHECK(skeleton->LambdaOf(s) >= level);
      if (skeleton->LambdaOf(s) > level) {
        skeleton->AttachChild(s, t);
      } else {
        merge.emplace_back(s, t);  // equal lambda: same nucleus
      }
    });
    if (!status.ok()) return status;
    for (const auto& [s, t] : merge) skeleton->UnionR(s, t);
  }
  return Status::Ok();
}

/// Alg. 9 over in-memory ADJ pairs: a counting sort by the lower side's
/// lambda, then ConsumeBins over the bins.
void BuildHierarchy(const std::vector<std::pair<std::int32_t, std::int32_t>>& adj,
                    Lambda max_lambda, HierarchySkeleton* skeleton);

/// The shared FND epilogue (serial and parallel pipelines): BuildHierarchy
/// over `adj`, then SkeletonBuild::AddRoot. `build->skeleton` and
/// `build->comp` must already be set.
void FinishSkeleton(
    const std::vector<std::pair<std::int32_t, std::int32_t>>& adj,
    Lambda max_lambda, SkeletonBuild* build);

}  // namespace internal

/// Alg. 8 lines 1-19: peeling with sub-nucleus detection and ADJ recording.
template <typename Space>
FndPeelState FastNucleusPeel(const Space& space) {
  FndPeelState state;
  const std::int64_t n = space.NumCliques();
  state.peel.lambda.assign(n, 0);
  state.comp.assign(n, kInvalidId);
  std::vector<Lambda>& lambda = state.peel.lambda;
  std::vector<std::int32_t>& comp = state.comp;
  HierarchySkeleton& skeleton = state.skeleton;
  std::vector<std::pair<std::int32_t, std::int32_t>>& adj = state.adj;

  PeelingBucketQueue queue;
  queue.Init(ComputeSupports(space));

  while (!queue.Empty()) {
    std::int32_t value = 0;
    const CliqueId u = queue.PopMin(&value);
    lambda[u] = value;
    if (value > state.peel.max_lambda) state.peel.max_lambda = value;
    const std::size_t adj_begin = adj.size();

    space.ForEachSuperclique(u, [&](const CliqueId* members, int count) {
      // Find the processed member w (other than u) of minimum lambda.
      CliqueId w = kInvalidId;
      Lambda w_lambda = 0;
      for (int i = 0; i < count; ++i) {
        const CliqueId v = members[i];
        if (v == u || !queue.Popped(v)) continue;
        if (w == kInvalidId || lambda[v] < w_lambda) {
          w = v;
          w_lambda = lambda[v];
        }
      }
      if (w == kInvalidId) {
        // All other members unprocessed: the plain peeling step.
        for (int i = 0; i < count; ++i) {
          const CliqueId v = members[i];
          if (v != u && queue.Value(v) > value) queue.Decrement(v);
        }
      } else if (w_lambda == value) {
        // Same sub-nucleus as w (strongly K_s-connected at level value).
        if (comp[u] == kInvalidId) {
          comp[u] = comp[w];
        } else {
          skeleton.UnionR(comp[u], comp[w]);
        }
      } else {
        // w's structure is an ancestor of u's in the hierarchy; defer.
        adj.emplace_back(comp[u], comp[w]);  // comp[u] may still be -1
      }
    });

    if (comp[u] == kInvalidId) comp[u] = skeleton.AddNode(value);
    // Alg. 8 line 19: resolve the pairs recorded before comp[u] was known.
    for (std::size_t i = adj_begin; i < adj.size(); ++i) {
      if (adj[i].first == kInvalidId) adj[i].first = comp[u];
    }
  }
  return state;
}

/// Alg. 8. One pass: peeling + sub-nucleus detection + ADJ recording,
/// followed by the lightweight BuildHierarchy post-processing.
template <typename Space>
FndResult FastNucleusDecomposition(const Space& space) {
  FndResult result;
  Timer timer;
  FndPeelState state = FastNucleusPeel(space);
  result.peel = std::move(state.peel);
  result.peel_seconds = timer.Seconds();

  timer.Restart();
  result.num_adj = static_cast<std::int64_t>(state.adj.size());
  result.build.skeleton = std::move(state.skeleton);
  result.build.comp = std::move(state.comp);
  internal::FinishSkeleton(state.adj, result.peel.max_lambda, &result.build);
  result.build_seconds = timer.Seconds();
  return result;
}

extern template FndPeelState FastNucleusPeel<VertexSpace>(const VertexSpace&);
extern template FndPeelState FastNucleusPeel<EdgeSpace>(const EdgeSpace&);
extern template FndPeelState FastNucleusPeel<TriangleSpace>(
    const TriangleSpace&);
extern template FndResult FastNucleusDecomposition<VertexSpace>(
    const VertexSpace&);
extern template FndResult FastNucleusDecomposition<EdgeSpace>(
    const EdgeSpace&);
extern template FndResult FastNucleusDecomposition<TriangleSpace>(
    const TriangleSpace&);

}  // namespace nucleus

#endif  // NUCLEUS_CORE_FAST_NUCLEUS_H_
