// Semi-external k-core decomposition WITH hierarchy construction.
//
// The paper's Section 3.1 observes that the external-memory k-core papers
// (Cheng et al. ICDE'11, Khaouid et al. PVLDB'15, Wen et al. ICDE'16)
// compute only the lambda values: "the additional traversal operation in
// external memory is not taken into consideration, which is at least as
// expensive as finding lambda values. Finding the (connected) k-cores and
// constructing the hierarchy among them efficiently in the external memory
// computation model is not a trivial problem."
//
// This module closes that gap with the paper's own machinery:
//
//  1. SemiExternalCoreLambda — lambda values in the semi-external model
//     (O(|V|) memory, edges on disk) by Gauss-Seidel h-index iteration
//     [Khaouid et al.'s in-memory-array variant of Montresor et al.]: start
//     from core(v) = deg(v) and repeatedly lower core(v) to the h-index of
//     its neighbors' values; each round is one sequential edge scan and the
//     fixpoint is exactly lambda_2.
//
//  2. SemiExternalCoreDecomposition — lambda plus the FULL hierarchy in
//     O(|V| + max_lambda) memory and O(1) additional edge scans. This is
//     the paper's FND insight transplanted to the EM model: once lambda is
//     known, a single edge scan suffices to (a) union equal-lambda
//     endpoints in an in-memory disjoint-set forest over vertices — whose
//     components are exactly the maximal sub-cores T_{1,2} (Def. 5) — and
//     (b) spill each lambda-crossing edge to disk as an ADJ pair. An
//     external counting sort groups the spilled pairs by the smaller
//     endpoint's lambda, and Alg. 9 consumes the bins in decreasing order
//     through the root-forest, never touching the graph again: the edges go
//     as 2-member K_s's to BuildSpilledSkeleton (em/pair_file.h), which the
//     truss build shares. No BFS traversal, random on disk, ever happens.
#ifndef NUCLEUS_EM_SEMI_EXTERNAL_CORE_H_
#define NUCLEUS_EM_SEMI_EXTERNAL_CORE_H_

#include <string>
#include <vector>

#include "nucleus/core/types.h"
#include "nucleus/em/adjacency_file.h"
#include "nucleus/util/status.h"

namespace nucleus {

/// Result of a semi-external decomposition. `build` has the same shape the
/// in-memory DFT/FND algorithms produce, so NucleusHierarchy::FromSkeleton
/// and all downstream queries work unchanged.
struct SemiExternalResult {
  PeelResult peel;
  SkeletonBuild build;
  /// Sequential h-index rounds until the lambda fixpoint.
  int lambda_passes = 0;
  /// Spilled lambda-crossing edges, the EM analogue of |c_down(T*)|.
  std::int64_t num_adj = 0;
  /// Aggregate IO over the graph file and both spill files.
  EmIoStats io;
};

/// Computes lambda_2 of every vertex in the semi-external model. Each
/// iteration is one sequential scan; `passes`, if non-null, receives the
/// number of scans until convergence.
StatusOr<PeelResult> SemiExternalCoreLambda(AdjacencyFile& graph,
                                            int* passes = nullptr);

/// Full semi-external k-core decomposition: lambda values, maximal
/// sub-cores, and the complete nucleus hierarchy-skeleton. `temp_dir` hosts
/// the two ADJ spill files (removed on success).
StatusOr<SemiExternalResult> SemiExternalCoreDecomposition(
    AdjacencyFile& graph, const std::string& temp_dir);

}  // namespace nucleus

#endif  // NUCLEUS_EM_SEMI_EXTERNAL_CORE_H_
