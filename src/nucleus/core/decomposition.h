// One-call decomposition facade: picks the (r,s) family and algorithm,
// builds the required clique indices, runs peeling + hierarchy
// construction, and reports per-phase timings and skeleton statistics —
// the interface the examples and the benchmark harness use.
#ifndef NUCLEUS_CORE_DECOMPOSITION_H_
#define NUCLEUS_CORE_DECOMPOSITION_H_

#include <string>
#include <vector>

#include "nucleus/core/hierarchy.h"
#include "nucleus/core/types.h"
#include "nucleus/graph/graph.h"
#include "nucleus/parallel/parallel_config.h"

namespace nucleus {

/// Which (r, s)-nucleus decomposition to run.
enum class Family {
  kCore12,     // (1,2): k-core
  kTruss23,    // (2,3): k-truss community
  kNucleus34,  // (3,4)
};

/// Which hierarchy-construction algorithm to use.
enum class Algorithm {
  kNaive,  // Alg. 3: peel + per-k BFS (no hierarchy; nuclei only)
  kDft,    // Alg. 5/6: disjoint-set forest traversal
  kFnd,    // Alg. 8/9: traversal-avoiding
  kLcps,   // Matula-Beck adaptation (kCore12 only)
  kHypo,   // peel + one flat BFS (lower-bound baseline; no output)
};

const char* FamilyName(Family family);
const char* AlgorithmName(Algorithm algorithm);

struct DecomposeOptions {
  Family family = Family::kCore12;
  Algorithm algorithm = Algorithm::kFnd;
  /// Materialize the naive algorithm's nuclei (kNaive only; tests).
  bool collect_nuclei = false;
  /// Skip NucleusHierarchy construction and validation (benchmarks time the
  /// skeleton algorithms exactly as the paper does).
  bool build_tree = true;
  /// Threading. Defaults to serial (num_threads == 1); num_threads == 0
  /// uses all hardware threads. With more than one resolved thread the
  /// (2,3) and (3,4) peels run wave-parallel for every algorithm ((1,2)
  /// keeps its flat-array peel at every thread count), and kFnd runs the
  /// parallel pipeline (FastNucleusDecompositionParallel). The
  /// peel output is bit-identical to the serial run, and so is the
  /// hierarchy, node numbering included, for every algorithm (see
  /// NucleusHierarchy::FromSkeleton and parallel/parallel_fnd.h).
  ParallelConfig parallel;
};

struct PhaseTimings {
  double index_seconds = 0.0;     // edge/triangle index construction
  double peel_seconds = 0.0;      // Alg. 1 (FND: extended peeling)
  double traverse_seconds = 0.0;  // traversal or BuildHierarchy phase
  double total_seconds = 0.0;     // index + peel + traverse
  double tree_seconds = 0.0;      // FromSkeleton (build_tree), not in total
};

struct DecompositionResult {
  std::int64_t num_cliques = 0;  // |K_r|
  PeelResult peel;
  /// Hierarchy tree (kDft / kFnd / kLcps with build_tree).
  NucleusHierarchy hierarchy;
  /// Materialized nuclei (kNaive with collect_nuclei).
  std::vector<Nucleus> nuclei;
  /// kNaive: number of nuclei found and total member visits.
  std::int64_t naive_num_nuclei = 0;
  /// Sub-nucleus counts: |T_{r,s}| for kDft, |T*_{r,s}| for kFnd.
  std::int64_t num_subnuclei = 0;
  /// |c_down(T*_{r,s})| (kFnd only): recorded ADJ connections.
  std::int64_t num_adj = 0;
  PhaseTimings timings;
};

/// Runs the requested decomposition. Aborts on invalid combinations
/// (kLcps with a family other than kCore12).
DecompositionResult Decompose(const Graph& g, const DecomposeOptions& options);

/// The vertex set spanned by a list of K_r member ids of `family`:
/// the members themselves for (1,2), endpoint unions for (2,3), vertex
/// unions for (3,4). Used to turn nuclei into induced subgraphs.
std::vector<VertexId> MembersToVertices(const Graph& g, Family family,
                                        const std::vector<CliqueId>& members);

}  // namespace nucleus

#endif  // NUCLEUS_CORE_DECOMPOSITION_H_
