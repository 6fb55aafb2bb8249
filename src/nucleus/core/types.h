// Shared result types of the decomposition layer.
#ifndef NUCLEUS_CORE_TYPES_H_
#define NUCLEUS_CORE_TYPES_H_

#include <cstdint>
#include <vector>

#include "nucleus/dsf/root_forest.h"
#include "nucleus/util/common.h"

namespace nucleus {

/// Output of the peeling phase (paper Alg. 1): the maximum k-(r,s) number
/// lambda_s(u) of every K_r, indexed by clique id.
struct PeelResult {
  std::vector<Lambda> lambda;
  Lambda max_lambda = 0;
};

/// One k-(r,s) nucleus: a maximal, K_s-connected set of K_r's whose
/// K_s-degrees inside the set are all >= k (paper Definition 2).
struct Nucleus {
  Lambda k = 0;
  std::vector<CliqueId> members;  // K_r ids, sorted ascending
};

/// A hierarchy-skeleton plus the K_r -> sub-nucleus assignment, as built by
/// DF-Traversal (Alg. 5/6), FND (Alg. 8/9) or the LCPS adaptation.
struct SkeletonBuild {
  HierarchySkeleton skeleton;
  std::vector<std::int32_t> comp;  // K_r id -> skeleton node id
  std::int32_t root_id = kInvalidId;
  /// Number of sub-nuclei (skeleton nodes excluding the artificial root).
  /// For FND these are the non-maximal T*_{r,s} of Table 3.
  std::int64_t num_subnuclei = 0;

  /// Closes a complete skeleton: records num_subnuclei and appends the
  /// artificial root (kRootLambda) as parent of every parentless node.
  void AddRoot() {
    num_subnuclei = skeleton.NumNodes();
    root_id = skeleton.AddNode(kRootLambda);
    for (std::int32_t s = 0; s < root_id; ++s) {
      if (!skeleton.HasParent(s)) skeleton.SetParent(s, root_id);
    }
  }
};

}  // namespace nucleus

#endif  // NUCLEUS_CORE_TYPES_H_
