// Level-synchronous parallel peeling (ParK-style) for any (r, s) space —
// the concrete half of the paper's closing future-work sentence: "adapting
// the existing parallel peeling algorithms for the hierarchy computation
// can be helpful."
//
// Instead of popping one minimum K_r at a time (Alg. 1's bucket queue), the
// algorithm advances a support level and processes whole WAVES: all
// unprocessed K_r's whose current support equals the level. Waves are
// partitioned across a persistent ThreadPool (one pool per peel; the
// workers are parked between waves instead of respawned). Two properties
// make the result exactly equal to the serial peel:
//
//  * Supports are decremented with a compare-and-swap that refuses to drop
//    a value below the current level, so every K_r is processed at exactly
//    its lambda.
//  * Alg. 1's "skip a superclique containing a processed K_r" rule has a
//    same-wave hazard (two wave members in one K_s must not both charge the
//    third member). The wave is therefore processed in two barriers: first
//    every wave member is marked with the wave's round number, then each
//    superclique is charged by exactly one deterministic owner — the
//    minimum-id wave member it contains — and only against members not yet
//    processed in any round.
//
// Combined with a hierarchy construction — the serial DFT, or the parallel
// FND in parallel_fnd.h — this parallelizes the dominant phase of the (2,3)
// and (3,4) decompositions while keeping output identical. The (1,2) peel
// is linear and memory-bound; its flat-array Peel (core/peeling.h) beats
// the waves at every thread count, so no pipeline path runs
// PeelParallel<VertexSpace>. It stays instantiated as a differential
// reference for the array peel.
#ifndef NUCLEUS_PARALLEL_PARALLEL_PEEL_H_
#define NUCLEUS_PARALLEL_PARALLEL_PEEL_H_

#include <cstdint>
#include <vector>

#include "nucleus/core/generic_space.h"
#include "nucleus/core/spaces.h"
#include "nucleus/core/types.h"
#include "nucleus/parallel/parallel_config.h"
#include "nucleus/parallel/thread_pool.h"

namespace nucleus {

/// Initial K_s-degrees over a caller-provided pool: the embarrassingly
/// parallel prefix of the peeling phase. Output is bit-identical to
/// ComputeSupports for any pool size; each chunk writes only its own slice.
template <typename Space>
std::vector<std::int32_t> ComputeSupportsParallel(const Space& space,
                                                  ThreadPool& pool,
                                                  std::int64_t grain) {
  std::vector<std::int32_t> supports(space.NumCliques(), 0);
  pool.ParallelFor(space.NumCliques(), grain,
                   [&](int, std::int64_t begin, std::int64_t end) {
                     for (CliqueId u = static_cast<CliqueId>(begin); u < end;
                          ++u) {
                       std::int32_t count = 0;
                       space.ForEachSuperclique(
                           u, [&count](const CliqueId*, int) { ++count; });
                       supports[u] = count;
                     }
                   });
  return supports;
}

/// Convenience overload with a scoped pool. num_threads <= 0 = hardware
/// concurrency (resolved by ParallelConfig).
template <typename Space>
std::vector<std::int32_t> ComputeSupportsParallel(const Space& space,
                                                  int num_threads = 0) {
  const ParallelConfig config = ParallelConfig::WithThreads(num_threads);
  ThreadPool pool(config);
  return ComputeSupportsParallel(space, pool, config.ResolvedGrain());
}

/// Parallel Set-lambda over a caller-provided pool (reused across all waves
/// and the support computation). Produces a PeelResult bit-identical to
/// Peel() for any pool size and grain.
template <typename Space>
PeelResult PeelParallel(const Space& space, ThreadPool& pool,
                        std::int64_t grain);

/// Parallel Set-lambda with a pool scoped to the call.
template <typename Space>
PeelResult PeelParallel(const Space& space, const ParallelConfig& config);

/// Back-compat convenience: thread count only (0 = hardware concurrency).
template <typename Space>
PeelResult PeelParallel(const Space& space, int num_threads = 0) {
  return PeelParallel(space, ParallelConfig::WithThreads(num_threads));
}

#define NUCLEUS_PARALLEL_PEEL_DECLARE(Space)                                \
  extern template std::vector<std::int32_t> ComputeSupportsParallel<Space>( \
      const Space&, ThreadPool&, std::int64_t);                             \
  extern template std::vector<std::int32_t> ComputeSupportsParallel<Space>( \
      const Space&, int);                                                   \
  extern template PeelResult PeelParallel<Space>(const Space&, ThreadPool&, \
                                                 std::int64_t);             \
  extern template PeelResult PeelParallel<Space>(const Space&,              \
                                                 const ParallelConfig&)

NUCLEUS_PARALLEL_PEEL_DECLARE(VertexSpace);
NUCLEUS_PARALLEL_PEEL_DECLARE(EdgeSpace);
NUCLEUS_PARALLEL_PEEL_DECLARE(TriangleSpace);
NUCLEUS_PARALLEL_PEEL_DECLARE(GenericSpace);

#undef NUCLEUS_PARALLEL_PEEL_DECLARE

}  // namespace nucleus

#endif  // NUCLEUS_PARALLEL_PARALLEL_PEEL_H_
