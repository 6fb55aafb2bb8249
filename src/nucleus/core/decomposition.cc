#include "nucleus/core/decomposition.h"

#include <algorithm>
#include <type_traits>

#include "nucleus/cliques/edge_index.h"
#include "nucleus/cliques/triangle_index.h"
#include "nucleus/core/df_traversal.h"
#include "nucleus/core/fast_nucleus.h"
#include "nucleus/core/hypo.h"
#include "nucleus/core/lcps.h"
#include "nucleus/core/naive_traversal.h"
#include "nucleus/core/peeling.h"
#include "nucleus/parallel/parallel_fnd.h"
#include "nucleus/parallel/parallel_peel.h"
#include "nucleus/parallel/thread_pool.h"
#include "nucleus/util/timer.h"

namespace nucleus {

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kCore12:
      return "(1,2) k-core";
    case Family::kTruss23:
      return "(2,3) k-truss";
    case Family::kNucleus34:
      return "(3,4) nucleus";
  }
  return "?";
}

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kNaive:
      return "Naive";
    case Algorithm::kDft:
      return "DFT";
    case Algorithm::kFnd:
      return "FND";
    case Algorithm::kLcps:
      return "LCPS";
    case Algorithm::kHypo:
      return "Hypo";
  }
  return "?";
}

namespace {

template <typename Space>
DecompositionResult RunOnSpace(const Space& space,
                               const DecomposeOptions& options,
                               double index_seconds) {
  DecompositionResult result;
  result.num_cliques = space.NumCliques();
  result.timings.index_seconds = index_seconds;
  Timer timer;

  // (1,2) always runs the flat-array peel: it is linear and memory-bound,
  // and the wave peel is slower than it at every thread count. (2,3) and
  // (3,4) peel wave-parallel whenever more than one thread resolves
  // (bit-identical lambda either way).
  const bool threaded = options.parallel.ResolvedThreads() > 1;
  const auto peel = [&] {
    if constexpr (std::is_same_v<Space, VertexSpace>) {
      return Peel(space);
    } else {
      return threaded ? PeelParallel(space, options.parallel) : Peel(space);
    }
  };
  const auto build_hierarchy = [&](const SkeletonBuild& build) {
    Timer tree_timer;
    result.hierarchy =
        NucleusHierarchy::FromSkeleton(build, result.num_cliques);
    result.timings.tree_seconds = tree_timer.Seconds();
  };

  switch (options.algorithm) {
    case Algorithm::kNaive: {
      result.peel = peel();
      result.timings.peel_seconds = timer.Seconds();
      timer.Restart();
      if (options.collect_nuclei) {
        result.nuclei =
            CollectNucleiNaive(space, result.peel.lambda, result.peel.max_lambda);
        result.naive_num_nuclei =
            static_cast<std::int64_t>(result.nuclei.size());
      } else {
        const NaiveStats stats = NaiveTraversal(
            space, result.peel.lambda, result.peel.max_lambda, nullptr);
        result.naive_num_nuclei = stats.num_nuclei;
      }
      result.timings.traverse_seconds = timer.Seconds();
      break;
    }
    case Algorithm::kDft: {
      result.peel = peel();
      result.timings.peel_seconds = timer.Seconds();
      timer.Restart();
      SkeletonBuild build = DfTraversal(space, result.peel);
      result.num_subnuclei = build.num_subnuclei;
      result.timings.traverse_seconds = timer.Seconds();
      if (options.build_tree) build_hierarchy(build);
      break;
    }
    case Algorithm::kFnd: {
      FndResult fnd = threaded
                          ? FastNucleusDecompositionParallel(space,
                                                             options.parallel)
                          : FastNucleusDecomposition(space);
      result.peel = std::move(fnd.peel);
      result.num_subnuclei = fnd.build.num_subnuclei;
      result.num_adj = fnd.num_adj;
      result.timings.peel_seconds = fnd.peel_seconds;
      result.timings.traverse_seconds = fnd.build_seconds;
      if (options.build_tree) build_hierarchy(fnd.build);
      break;
    }
    case Algorithm::kLcps: {
      if constexpr (std::is_same_v<Space, VertexSpace>) {
        result.peel = peel();
        result.timings.peel_seconds = timer.Seconds();
        timer.Restart();
        SkeletonBuild build = LcpsKCoreHierarchy(space.graph(), result.peel);
        result.num_subnuclei = build.num_subnuclei;
        result.timings.traverse_seconds = timer.Seconds();
        if (options.build_tree) build_hierarchy(build);
      } else {
        NUCLEUS_CHECK_MSG(false, "LCPS is only defined for Family::kCore12");
      }
      break;
    }
    case Algorithm::kHypo: {
      result.peel = peel();
      result.timings.peel_seconds = timer.Seconds();
      timer.Restart();
      (void)HypoTraversal(space);
      result.timings.traverse_seconds = timer.Seconds();
      break;
    }
  }
  result.timings.total_seconds = result.timings.index_seconds +
                                 result.timings.peel_seconds +
                                 result.timings.traverse_seconds;
  return result;
}

}  // namespace

DecompositionResult Decompose(const Graph& g,
                              const DecomposeOptions& options) {
  Timer timer;
  switch (options.family) {
    case Family::kCore12: {
      VertexSpace space(g);
      return RunOnSpace(space, options, 0.0);
    }
    case Family::kTruss23: {
      const EdgeIndex edges = EdgeIndex::Build(g, options.parallel);
      const double index_seconds = timer.Seconds();
      EdgeSpace space(g, edges);
      return RunOnSpace(space, options, index_seconds);
    }
    case Family::kNucleus34: {
      // One pool for both index builds: the spawn cost is paid once.
      EdgeIndex edges;
      TriangleIndex triangles;
      if (options.parallel.ResolvedThreads() > 1) {
        ThreadPool pool(options.parallel);
        const std::int64_t grain = options.parallel.ResolvedGrain();
        edges = EdgeIndex::Build(g, pool, grain);
        triangles = TriangleIndex::Build(g, edges, pool, grain);
      } else {
        edges = EdgeIndex::Build(g);
        triangles = TriangleIndex::Build(g, edges);
      }
      const double index_seconds = timer.Seconds();
      TriangleSpace space(g, edges, triangles);
      return RunOnSpace(space, options, index_seconds);
    }
  }
  NUCLEUS_CHECK_MSG(false, "unknown family");
  return {};
}

std::vector<VertexId> MembersToVertices(const Graph& g, Family family,
                                        const std::vector<CliqueId>& members) {
  std::vector<VertexId> vertices;
  switch (family) {
    case Family::kCore12: {
      vertices.assign(members.begin(), members.end());
      break;
    }
    case Family::kTruss23: {
      // Edge ids are canonical (lexicographic by endpoints), so rebuilding
      // the index reproduces the ids the decomposition used.
      const EdgeIndex edges = EdgeIndex::Build(g);
      for (CliqueId e : members) {
        const auto [u, v] = edges.Endpoints(e);
        vertices.push_back(u);
        vertices.push_back(v);
      }
      break;
    }
    case Family::kNucleus34: {
      const EdgeIndex edges = EdgeIndex::Build(g);
      const TriangleIndex triangles = TriangleIndex::Build(g, edges);
      for (CliqueId t : members) {
        const auto& tri = triangles.Vertices(t);
        vertices.insert(vertices.end(), tri.begin(), tri.end());
      }
      break;
    }
  }
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  return vertices;
}

}  // namespace nucleus
