// Ablation A2: BuildHierarchy's binned processing order (paper Alg. 9).
// The ADJ pairs must be consumed in decreasing order of the lower side's
// lambda for the root forest to stay consistent. Two correct orderings are
// compared on identical FND peel states:
//   binned  — counting-sort into max-lambda bins (the paper's choice);
//   sorted  — comparison std::stable_sort of the pairs by that key.
// Both produce the same hierarchy; the binned variant is O(|ADJ| + maxλ).
#include <algorithm>
#include <iostream>
#include <utility>
#include <vector>

#include "nucleus/bench/datasets.h"
#include "nucleus/bench/table.h"
#include "nucleus/cliques/edge_index.h"
#include "nucleus/core/fast_nucleus.h"
#include "nucleus/util/timer.h"

namespace nucleus {
namespace {

// Comparison-sort variant of Alg. 9 over the same skeleton/ADJ state.
double SortedBuildSeconds(FndPeelState state) {
  Timer timer;
  HierarchySkeleton& skeleton = state.skeleton;
  std::stable_sort(state.adj.begin(), state.adj.end(),
                   [&skeleton](const std::pair<std::int32_t, std::int32_t>& a,
                               const std::pair<std::int32_t, std::int32_t>& b) {
                     return skeleton.LambdaOf(a.second) >
                            skeleton.LambdaOf(b.second);
                   });
  // Sorted by decreasing lower-side lambda, so each level's bin is the next
  // run of the sorted pairs.
  std::size_t i = 0;
  const Status status = internal::ConsumeBins(
      state.peel.max_lambda, &skeleton, [&](Lambda level, auto&& visit) {
        for (; i < state.adj.size() &&
               skeleton.LambdaOf(state.adj[i].second) == level;
             ++i) {
          visit(state.adj[i].first, state.adj[i].second);
        }
        return Status::Ok();
      });
  NUCLEUS_CHECK(status.ok());
  return timer.Seconds();
}

double BinnedBuildSeconds(FndPeelState state) {
  Timer timer;
  internal::BuildHierarchy(state.adj, state.peel.max_lambda, &state.skeleton);
  return timer.Seconds();
}

void Run() {
  std::cout << "Ablation A2: BuildHierarchy ordering (paper Alg. 9)\n"
            << "counting-sort bins vs comparison sort of the ADJ pairs, on\n"
            << "identical (2,3) FND peel states.\n\n";
  TablePrinter table({"graph", "|ADJ|", "binned (s)", "sorted (s)", "ratio"});
  for (const DatasetSpec& spec : PaperDatasets()) {
    const Graph g = spec.make();
    const EdgeIndex edges = EdgeIndex::Build(g);
    const EdgeSpace space(g, edges);
    const FndPeelState state = FastNucleusPeel(space);
    const double binned = BinnedBuildSeconds(state);
    const double sorted = SortedBuildSeconds(state);
    table.AddRow({spec.paper_name,
                  FormatCount(static_cast<std::int64_t>(state.adj.size())),
                  FormatSeconds(binned), FormatSeconds(sorted),
                  FormatSpeedup(sorted / std::max(binned, 1e-9))});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace nucleus

int main() {
  nucleus::Run();
  return 0;
}
