// Deterministic synthetic graph generators.
//
// The paper evaluates on nine public SNAP / Network Repository / UF graphs
// that are unavailable in this offline environment; these generators produce
// the structural regimes those graphs represent (bench/datasets.h maps each
// paper graph to its generator) and the small structured families used
// throughout the test suite.
//
// Every generator is deterministic in its seed.
#ifndef NUCLEUS_GRAPH_GENERATORS_H_
#define NUCLEUS_GRAPH_GENERATORS_H_

#include <cstdint>

#include "nucleus/graph/graph.h"
#include "nucleus/util/common.h"

namespace nucleus {

// --- Deterministic structured families (no randomness) ---------------------

/// Path with n vertices (n - 1 edges).
Graph Path(VertexId n);

/// Cycle with n vertices. Requires n >= 3.
Graph Cycle(VertexId n);

/// Star: one hub (vertex 0) and `leaves` leaves.
Graph Star(VertexId leaves);

/// Complete graph K_n.
Graph Complete(VertexId n);

/// Complete bipartite graph K_{a,b} (sides 0..a-1 and a..a+b-1).
Graph CompleteBipartite(VertexId a, VertexId b);

/// rows x cols grid (4-neighborhood).
Graph Grid2D(VertexId rows, VertexId cols);

/// Wheel: cycle of n - 1 vertices plus a hub adjacent to all. Requires n >= 4.
Graph Wheel(VertexId n);

/// Lollipop: K_{clique_size} with a path of `path_length` vertices attached.
Graph Lollipop(VertexId clique_size, VertexId path_length);

// --- Random families --------------------------------------------------------

/// Erdos-Renyi G(n, m): exactly m distinct edges drawn uniformly.
Graph ErdosRenyiGnm(VertexId n, std::int64_t m, std::uint64_t seed);

/// Erdos-Renyi G(n, p) via geometric skipping (O(n + m)).
Graph ErdosRenyiGnp(VertexId n, double p, std::uint64_t seed);

/// Barabasi-Albert preferential attachment: each new vertex attaches to
/// `edges_per_vertex` existing vertices proportionally to degree.
Graph BarabasiAlbert(VertexId n, VertexId edges_per_vertex,
                     std::uint64_t seed);

/// R-MAT with 2^scale vertices and `num_edges` sampled edges (self-loops and
/// duplicates dropped, so the result has slightly fewer). Probabilities
/// (a, b, c) with d = 1 - a - b - c select quadrants recursively.
Graph RMat(int scale, std::int64_t num_edges, double a, double b, double c,
           std::uint64_t seed);

/// Watts-Strogatz small world: ring lattice with k nearest neighbors per
/// side, each edge rewired with probability beta. Requires 0 < 2k < n.
Graph WattsStrogatz(VertexId n, VertexId k, double beta, std::uint64_t seed);

/// Planted partition: `communities` blocks of `block_size` vertices; edge
/// probability p_in within a block, p_out across blocks. The regime of the
/// facebook100 graphs (dense social networks) at high p_in.
Graph PlantedPartition(VertexId communities, VertexId block_size, double p_in,
                       double p_out, std::uint64_t seed);

/// Connected caveman-style graph: `caves` cliques of `cave_size` vertices,
/// plus `bridges` random inter-clique edges. With large cave_size this is
/// the uk-2005 regime: enormous |K4| / |triangle| ratio.
Graph Caveman(VertexId caves, VertexId cave_size, std::int64_t bridges,
              std::uint64_t seed);

/// Caveman variant with cave sizes drawn uniformly from
/// [min_cave_size, max_cave_size]: cliques of many different orders yield
/// many distinct lambda levels, the shape of real web-host graphs.
Graph MixedCaveman(VertexId caves, VertexId min_cave_size,
                   VertexId max_cave_size, std::int64_t bridges,
                   std::uint64_t seed);

/// Hierarchical communities: a balanced tree of depth `levels` with
/// `branching` children per node; leaves are cliques of `leaf_size`
/// vertices. Sibling subtrees at height h are connected by
/// `edges_per_pair_base` * (levels - h) random cross edges, so cohesion
/// decays with height. Produces graphs with a deep, known nucleus hierarchy.
Graph HierarchicalCommunities(int levels, int branching, VertexId leaf_size,
                              VertexId edges_per_pair_base,
                              std::uint64_t seed);

/// Adds `closures` triangle-closing edges to `g`: picks a random vertex, two
/// random neighbors, and connects them. Raises clustering the way follower
/// networks (twitter-hb regime) exhibit.
Graph WithTriadicClosure(const Graph& g, std::int64_t closures,
                         std::uint64_t seed);

/// Adds `extra` uniformly random edges to `g` (deduplicated at build).
Graph WithRandomEdges(const Graph& g, std::int64_t extra, std::uint64_t seed);

}  // namespace nucleus

#endif  // NUCLEUS_GRAPH_GENERATORS_H_
