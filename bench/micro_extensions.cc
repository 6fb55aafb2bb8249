// Micro-benchmarks (google-benchmark) of the extension modules: binary IO
// and disk scans, spill-file sorting, semi-external lambda scans,
// wave-parallel peeling and HierarchyIndex construction/queries.
#include <benchmark/benchmark.h>

#include <string>

#include "nucleus/core/decomposition.h"
#include "nucleus/core/hierarchy_index.h"
#include "nucleus/em/adjacency_file.h"
#include "nucleus/em/pair_file.h"
#include "nucleus/core/peeling.h"
#include "nucleus/em/semi_external_core.h"
#include "nucleus/graph/binary_io.h"
#include "nucleus/graph/generators.h"
#include "nucleus/parallel/parallel_peel.h"
#include "nucleus/util/rng.h"

namespace nucleus {
namespace {

const Graph& SocialGraph() {
  static const Graph* const g =
      new Graph(PlantedPartition(8, 50, 0.4, 0.01, 424242));
  return *g;
}

std::string TempGraphPath() {
  static const std::string* const path = [] {
    auto* p = new std::string("/tmp/micro_ext.nucgraph");
    NUCLEUS_CHECK(WriteBinaryGraph(SocialGraph(), *p).ok());
    return p;
  }();
  return *path;
}

void BM_BinaryGraphLoad(benchmark::State& state) {
  const std::string path = TempGraphPath();
  for (auto _ : state) {
    auto g = ReadBinaryGraph(path);
    NUCLEUS_CHECK(g.ok());
    benchmark::DoNotOptimize(g->NumEdges());
  }
  state.SetItemsProcessed(state.iterations() * SocialGraph().NumEdges());
}
BENCHMARK(BM_BinaryGraphLoad);

void BM_AdjacencyFileEdgeScan(benchmark::State& state) {
  auto file = AdjacencyFile::Open(TempGraphPath(),
                                  static_cast<std::size_t>(state.range(0)));
  NUCLEUS_CHECK(file.ok());
  for (auto _ : state) {
    std::int64_t edges = 0;
    NUCLEUS_CHECK(
        file->ScanEdges([&](VertexId, VertexId) { ++edges; }).ok());
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(state.iterations() * SocialGraph().NumEdges());
}
BENCHMARK(BM_AdjacencyFileEdgeScan)->Arg(1 << 12)->Arg(1 << 20);

void BM_PairFileSortByBin(benchmark::State& state) {
  const std::int64_t pairs = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    auto pf = PairFile::Create("/tmp/micro_ext_pairs.bin");
    NUCLEUS_CHECK(pf.ok());
    Rng rng(7);
    for (std::int64_t i = 0; i < pairs; ++i) {
      NUCLEUS_CHECK(pf->Append(static_cast<std::int32_t>(
                                   rng.UniformInt(0, 63)),
                               static_cast<std::int32_t>(i))
                        .ok());
    }
    NUCLEUS_CHECK(pf->Flush().ok());
    state.ResumeTiming();
    std::vector<std::int64_t> bins;
    auto sorted = pf->SortByBin(
        [](std::int32_t a, std::int32_t) { return a; }, 64,
        "/tmp/micro_ext_sorted.bin", &bins);
    NUCLEUS_CHECK(sorted.ok());
    benchmark::DoNotOptimize(bins.back());
  }
  state.SetItemsProcessed(state.iterations() * pairs);
}
BENCHMARK(BM_PairFileSortByBin)->Arg(1 << 14)->Arg(1 << 17);

void BM_SemiExternalCoreLambda(benchmark::State& state) {
  auto file = AdjacencyFile::Open(TempGraphPath());
  NUCLEUS_CHECK(file.ok());
  for (auto _ : state) {
    auto r = SemiExternalCoreLambda(*file);
    NUCLEUS_CHECK(r.ok());
    benchmark::DoNotOptimize(r->max_lambda);
  }
}
BENCHMARK(BM_SemiExternalCoreLambda);

void BM_WaveParallelPeel12(benchmark::State& state) {
  const VertexSpace space(SocialGraph());
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const PeelResult r = PeelParallel(space, threads);
    benchmark::DoNotOptimize(r.max_lambda);
  }
}
BENCHMARK(BM_WaveParallelPeel12)->Arg(1)->Arg(4);

void BM_HierarchyIndexBuild(benchmark::State& state) {
  DecomposeOptions opts;
  opts.family = Family::kCore12;
  const DecompositionResult result = Decompose(SocialGraph(), opts);
  for (auto _ : state) {
    const HierarchyIndex index(result.hierarchy);
    benchmark::DoNotOptimize(index.Depth(0));
  }
}
BENCHMARK(BM_HierarchyIndexBuild);

void BM_HierarchyIndexQueries(benchmark::State& state) {
  DecomposeOptions opts;
  opts.family = Family::kCore12;
  const DecompositionResult result = Decompose(SocialGraph(), opts);
  const HierarchyIndex index(result.hierarchy);
  Rng rng(17);
  const VertexId n = SocialGraph().NumVertices();
  for (auto _ : state) {
    const VertexId u = rng.UniformVertex(n);
    const VertexId v = rng.UniformVertex(n);
    benchmark::DoNotOptimize(index.CommonNucleusLevel(u, v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyIndexQueries);

}  // namespace
}  // namespace nucleus

BENCHMARK_MAIN();
