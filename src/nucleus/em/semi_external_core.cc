#include "nucleus/em/semi_external_core.h"

#include <algorithm>

#include "nucleus/em/pair_file.h"

namespace nucleus {
namespace {

/// h-index of the multiset {min(values[u], cap) : u in neighbors}: the
/// largest h such that at least h entries are >= h. `counts` is caller
/// scratch of size >= cap + 1, zeroed on entry and re-zeroed before return.
Lambda HIndex(std::span<const VertexId> neighbors,
              const std::vector<Lambda>& values, Lambda cap,
              std::vector<std::int32_t>* counts) {
  for (VertexId u : neighbors) {
    ++(*counts)[std::min(values[u], cap)];
  }
  Lambda h = 0;
  std::int64_t at_least = 0;
  for (Lambda j = cap; j >= 1; --j) {
    at_least += (*counts)[j];
    if (at_least >= j) {
      h = j;
      break;
    }
  }
  // Re-zero only the touched slots.
  for (VertexId u : neighbors) {
    (*counts)[std::min(values[u], cap)] = 0;
  }
  return h;
}

}  // namespace

StatusOr<PeelResult> SemiExternalCoreLambda(AdjacencyFile& graph,
                                            int* passes) {
  const VertexId n = graph.NumVertices();
  PeelResult result;
  result.lambda.resize(n);
  Lambda max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    result.lambda[v] = static_cast<Lambda>(graph.Degree(v));
    max_degree = std::max(max_degree, result.lambda[v]);
  }

  // Gauss-Seidel h-index iteration: values only decrease and stay >= the
  // true core number, so in-place updates within a pass are safe and speed
  // convergence. Terminates because the total value sum strictly decreases
  // every changing pass.
  std::vector<std::int32_t> counts(static_cast<std::size_t>(max_degree) + 1,
                                   0);
  int rounds = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++rounds;
    Status scan = graph.ScanVertices(
        [&](VertexId v, std::span<const VertexId> neighbors) {
          const Lambda h =
              HIndex(neighbors, result.lambda, result.lambda[v], &counts);
          if (h < result.lambda[v]) {
            result.lambda[v] = h;
            changed = true;
          }
        });
    if (!scan.ok()) return scan;
  }
  if (passes != nullptr) *passes = rounds;
  result.max_lambda = 0;
  for (VertexId v = 0; v < n; ++v) {
    result.max_lambda = std::max(result.max_lambda, result.lambda[v]);
  }
  return result;
}

StatusOr<SemiExternalResult> SemiExternalCoreDecomposition(
    AdjacencyFile& graph, const std::string& temp_dir) {
  SemiExternalResult result;

  auto lambda_or = SemiExternalCoreLambda(graph, &result.lambda_passes);
  if (!lambda_or.ok()) return lambda_or.status();
  result.peel = std::move(*lambda_or);

  // One edge scan: each edge is a K_s with two members, so equal-lambda
  // endpoints are unioned (components become the maximal sub-cores T_{1,2})
  // and lambda-crossing edges spill as (higher, lower) ADJ pairs.
  if (Status s = BuildSpilledSkeleton(
          result.peel, temp_dir,
          [&graph](const KsSink& sink) {
            return graph.ScanEdges([&sink](VertexId u, VertexId v) {
              const std::int32_t members[2] = {u, v};
              sink(members);
            });
          },
          &result.build, &result.num_adj, &result.io);
      !s.ok()) {
    return s;
  }
  result.io.Add(graph.stats());
  return result;
}

}  // namespace nucleus
