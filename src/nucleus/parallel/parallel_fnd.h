// Parallel traversal-avoiding hierarchy construction: the FND pipeline
// (paper Alg. 8/9) with every heavy phase on the shared ThreadPool —
// completing the paper's future-work sentence for the hierarchy half.
//
// The serial FND interleaves sub-nucleus detection with the strictly
// sequential bucket peel. The parallel pipeline decouples them:
//
//   1. Wave-parallel peel (parallel_peel.h) — lambda, bit-identical to
//      Alg. 1. (1,2) runs the serial flat-array Peel instead, which the
//      wave peel does not beat at any thread count.
//   2. Concurrent sub-nucleus detection: one parallel sweep over all
//      supercliques. Each K_s is handled by exactly one owner (its
//      minimum-id member); members at the superclique's minimum lambda m
//      are united in a lock-free min-id disjoint-set (they are strongly
//      K_s-connected at level m), and every member above m emits one
//      deferred (member, anchor) connection — exactly the pairs Alg. 8
//      lines 13-17 discover during the peel, so |ADJ| matches the serial
//      count.
//   3. Deterministic reduction: components become skeleton nodes in
//      ascending minimum-member order; per-chunk ADJ buffers concatenate in
//      chunk order. Chunk boundaries depend only on the grain, and the
//      min-id disjoint-set's final representatives are schedule-
//      independent, so steps 3-4 see identical input for EVERY thread
//      count — the whole pipeline is bit-identical across thread counts
//      (and to its own single-threaded run).
//   4. Alg. 9 (internal::BuildHierarchy) assembles the skeleton from the
//      binned ADJ pairs, unchanged.
//
// Relative to the serial FND the skeleton is already fully merged: nodes
// are the maximal sub-nuclei T_{r,s} (DF-Traversal's count) rather than
// the finer T*_{r,s}, and skeleton ids follow the canonical order above
// rather than pop order. The contracted NucleusHierarchy is identical,
// node numbering included (NucleusHierarchy::FromSkeleton numbers nodes
// from the nucleus set alone).
#ifndef NUCLEUS_PARALLEL_PARALLEL_FND_H_
#define NUCLEUS_PARALLEL_PARALLEL_FND_H_

#include "nucleus/core/fast_nucleus.h"
#include "nucleus/core/generic_space.h"
#include "nucleus/core/spaces.h"
#include "nucleus/core/types.h"
#include "nucleus/parallel/parallel_config.h"

namespace nucleus {

/// Parallel Alg. 8 + 9: peeling, sub-nucleus detection and hierarchy
/// build, end to end. Output is identical for every config (thread count
/// and grain); lambda is bit-identical to the serial Peel/FND, and the
/// hierarchy is identical to FastNucleusDecomposition's.
template <typename Space>
FndResult FastNucleusDecompositionParallel(const Space& space,
                                           const ParallelConfig& config = {});

extern template FndResult FastNucleusDecompositionParallel<VertexSpace>(
    const VertexSpace&, const ParallelConfig&);
extern template FndResult FastNucleusDecompositionParallel<EdgeSpace>(
    const EdgeSpace&, const ParallelConfig&);
extern template FndResult FastNucleusDecompositionParallel<TriangleSpace>(
    const TriangleSpace&, const ParallelConfig&);
extern template FndResult FastNucleusDecompositionParallel<GenericSpace>(
    const GenericSpace&, const ParallelConfig&);

}  // namespace nucleus

#endif  // NUCLEUS_PARALLEL_PARALLEL_FND_H_
