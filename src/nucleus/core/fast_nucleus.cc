#include "nucleus/core/fast_nucleus.h"

namespace nucleus {
namespace internal {

void BuildHierarchy(
    const std::vector<std::pair<std::int32_t, std::int32_t>>& adj,
    Lambda max_lambda, HierarchySkeleton* skeleton) {
  // Bin pairs by the lambda of the lower side (counting sort).
  std::vector<std::int64_t> bin(max_lambda + 2, 0);
  for (const auto& [s, t] : adj) ++bin[skeleton->LambdaOf(t) + 1];
  for (Lambda l = 0; l <= max_lambda; ++l) bin[l + 1] += bin[l];
  std::vector<std::pair<std::int32_t, std::int32_t>> binned(adj.size());
  std::vector<std::int64_t> fill(bin.begin(), bin.end() - 1);
  for (const auto& p : adj) binned[fill[skeleton->LambdaOf(p.second)]++] = p;

  const Status status = ConsumeBins(
      max_lambda, skeleton, [&](Lambda level, auto&& visit) {
        for (std::int64_t i = bin[level]; i < bin[level + 1]; ++i) {
          visit(binned[i].first, binned[i].second);
        }
        return Status::Ok();
      });
  NUCLEUS_CHECK(status.ok());
}

void FinishSkeleton(
    const std::vector<std::pair<std::int32_t, std::int32_t>>& adj,
    Lambda max_lambda, SkeletonBuild* build) {
  BuildHierarchy(adj, max_lambda, &build->skeleton);
  build->AddRoot();
}

}  // namespace internal

template FndPeelState FastNucleusPeel<VertexSpace>(const VertexSpace&);
template FndPeelState FastNucleusPeel<EdgeSpace>(const EdgeSpace&);
template FndPeelState FastNucleusPeel<TriangleSpace>(const TriangleSpace&);
template FndResult FastNucleusDecomposition<VertexSpace>(const VertexSpace&);
template FndResult FastNucleusDecomposition<EdgeSpace>(const EdgeSpace&);
template FndResult FastNucleusDecomposition<TriangleSpace>(const TriangleSpace&);

}  // namespace nucleus
