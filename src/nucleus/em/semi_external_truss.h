// Semi-external k-truss ((2,3)-nucleus) decomposition WITH hierarchy.
//
// The paper's Section 3.2: "external memory k-truss decomposition [Wang &
// Cheng, PVLDB'12] would be more expensive and require more intricate
// algorithms if it is done to find connected subgraphs by doing the
// traversal in external memory model. We believe that our algorithms for
// efficiently finding the k-trusses and constructing the hierarchy will be
// helpful to deal with this issue." This module is that algorithm.
//
// Model: O(|E|) state in memory (edge endpoints, supports, lambda — the
// standard semi-external truss budget of Wang & Cheng), adjacency on disk,
// triangles never materialized: each enumeration is one sequential vertex
// scan that pairs forward neighbors and confirms the closing edge with a
// binary search in the in-memory endpoint table.
//
// Peeling is wave-synchronous (the ParK schema of parallel/parallel_peel.h
// driven by disk scans): at support level k, all alive edges at <= k die
// together, one triangle scan charges each still-live triangle exactly
// once, and the level advances when a sweep finds nothing to kill. Waves —
// not edges — bound the number of disk scans.
//
// The hierarchy then costs ONE more triangle scan (the FND harvesting
// idea) fed to BuildSpilledSkeleton (em/pair_file.h): every triangle unions
// its minimum-lambda edges (Definition 5's strong triangle connectivity)
// and spills (higher, min) edge pairs to disk; an external counting sort
// plus the binned Alg. 9 finishes the job without any graph traversal.
#ifndef NUCLEUS_EM_SEMI_EXTERNAL_TRUSS_H_
#define NUCLEUS_EM_SEMI_EXTERNAL_TRUSS_H_

#include <string>
#include <utility>
#include <vector>

#include "nucleus/core/types.h"
#include "nucleus/em/adjacency_file.h"
#include "nucleus/util/status.h"

namespace nucleus {

/// Result of a semi-external (2,3) decomposition. Edge ids follow the
/// EdgeIndex convention (lexicographic by (u, v), u < v), so `peel` and
/// `build` are directly comparable with the in-memory algorithms.
struct SemiExternalTrussResult {
  PeelResult peel;
  SkeletonBuild build;
  /// Disk triangle scans consumed by the peeling waves.
  int waves = 0;
  /// Spilled lambda-crossing (edge, min-edge) pairs.
  std::int64_t num_adj = 0;
  /// Aggregate IO over the graph file and the spill files.
  EmIoStats io;
};

/// Support (triangle count) of every edge in one disk scan — exposed for
/// tests and as the building block of the wave peel.
StatusOr<std::vector<std::int32_t>> SemiExternalTriangleSupports(
    AdjacencyFile& graph);

/// Full semi-external k-truss decomposition: trussness of every edge,
/// maximal sub-(2,3)-nuclei, and the complete hierarchy-skeleton.
/// `temp_dir` hosts the ADJ spill files (removed on success).
StatusOr<SemiExternalTrussResult> SemiExternalTrussDecomposition(
    AdjacencyFile& graph, const std::string& temp_dir);

}  // namespace nucleus

#endif  // NUCLEUS_EM_SEMI_EXTERNAL_TRUSS_H_
