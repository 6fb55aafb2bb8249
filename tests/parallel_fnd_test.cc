// FastNucleusDecompositionParallel: the determinism sweep. Across the
// graph zoo, for (1,2), (2,3) and (3,4) and threads in {1, 2, 4, 8}, the
// parallel pipeline must produce
//   * lambda arrays bit-identical to the serial Peel / serial FND, and
//   * output (comp assignment, skeleton, ADJ count) bit-identical across
//     every thread count and grain, and
//   * a hierarchy identical, node for node, to the serial algorithms'
//     (validated structure, same sub-nucleus count as DFT).
#include "nucleus/parallel/parallel_fnd.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/cliques/edge_index.h"
#include "nucleus/cliques/triangle_index.h"
#include "nucleus/core/decomposition.h"
#include "nucleus/core/df_traversal.h"
#include "nucleus/core/fast_nucleus.h"
#include "nucleus/core/hierarchy.h"
#include "nucleus/core/peeling.h"
#include "nucleus/graph/generators.h"
#include "nucleus/store/snapshot.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::GraphCase;
using testing_util::GraphZoo;

/// Byte-comparable image of a skeleton: (lambda, parent) per node.
std::vector<std::pair<Lambda, std::int32_t>> SkeletonImage(
    const HierarchySkeleton& skeleton) {
  std::vector<std::pair<Lambda, std::int32_t>> image;
  image.reserve(skeleton.NumNodes());
  for (std::int32_t s = 0; s < skeleton.NumNodes(); ++s) {
    image.emplace_back(skeleton.LambdaOf(s), skeleton.Parent(s));
  }
  return image;
}

constexpr int kThreadSweep[] = {1, 2, 4, 8};

template <typename Space>
void CheckSweep(const Space& space, std::int64_t num_cliques) {
  const PeelResult serial_peel = Peel(space);
  const FndResult serial = FastNucleusDecomposition(space);
  const SkeletonBuild dft = DfTraversal(space, serial_peel);
  const NucleusHierarchy serial_tree =
      NucleusHierarchy::FromSkeleton(serial.build, num_cliques);

  // Reference parallel run: one thread, small grain (forces multi-chunk
  // buffers even on zoo-sized graphs).
  ParallelConfig reference_config = ParallelConfig::WithThreads(1);
  reference_config.grain_size = 8;
  const FndResult reference =
      FastNucleusDecompositionParallel(space, reference_config);
  EXPECT_EQ(reference.peel.lambda, serial_peel.lambda);
  EXPECT_EQ(reference.peel.max_lambda, serial_peel.max_lambda);
  // The parallel skeleton is fully merged: its nodes are the maximal
  // sub-nuclei, i.e. DFT's count (serial FND counts the finer T*).
  EXPECT_EQ(reference.build.num_subnuclei, dft.num_subnuclei);
  EXPECT_EQ(reference.num_adj, serial.num_adj);

  const NucleusHierarchy reference_tree =
      NucleusHierarchy::FromSkeleton(reference.build, num_cliques);
  reference_tree.Validate(reference.peel.lambda);
  testing_util::ExpectHierarchyEqual(reference_tree, serial_tree);

  const auto reference_skeleton = SkeletonImage(reference.build.skeleton);
  for (const int threads : kThreadSweep) {
    for (const std::int64_t grain : {std::int64_t{8}, std::int64_t{1024}}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " grain=" << grain);
      ParallelConfig config = ParallelConfig::WithThreads(threads);
      config.grain_size = grain;
      const FndResult run = FastNucleusDecompositionParallel(space, config);
      // Bit-identical output for every thread count and grain.
      EXPECT_EQ(run.peel.lambda, serial_peel.lambda);
      EXPECT_EQ(run.build.comp, reference.build.comp);
      EXPECT_EQ(run.build.root_id, reference.build.root_id);
      EXPECT_EQ(run.build.num_subnuclei, reference.build.num_subnuclei);
      EXPECT_EQ(run.num_adj, reference.num_adj);
      EXPECT_EQ(SkeletonImage(run.build.skeleton), reference_skeleton);
    }
  }
}

class ParallelFndZoo : public ::testing::TestWithParam<GraphCase> {};

TEST_P(ParallelFndZoo, VertexSpaceDeterminismSweep) {
  const Graph g = GetParam().make();
  CheckSweep(VertexSpace(g), g.NumVertices());
}

TEST_P(ParallelFndZoo, EdgeSpaceDeterminismSweep) {
  const Graph g = GetParam().make();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  CheckSweep(space, space.NumCliques());
}

TEST_P(ParallelFndZoo, TriangleSpaceDeterminismSweep) {
  const Graph g = GetParam().make();
  const EdgeIndex edges = EdgeIndex::Build(g);
  const TriangleIndex triangles = TriangleIndex::Build(g, edges);
  const TriangleSpace space(g, edges, triangles);
  CheckSweep(space, space.NumCliques());
}

INSTANTIATE_TEST_SUITE_P(Zoo, ParallelFndZoo, ::testing::ValuesIn(GraphZoo()),
                         [](const auto& info) { return info.param.name; });

TEST(ParallelFnd, GenericSpaceMatchesSerial) {
  const Graph g = ErdosRenyiGnp(30, 0.3, 67);
  for (const auto& [r, s] : {std::pair<int, int>{1, 3}, {2, 4}}) {
    SCOPED_TRACE(::testing::Message() << "(" << r << "," << s << ")");
    const GenericSpace space = GenericSpace::Build(g, r, s);
    CheckSweep(space, space.NumCliques());
  }
}

TEST(ParallelFnd, RepeatedRunsAreIdentical) {
  const Graph g = PlantedPartition(4, 15, 0.5, 0.05, 71);
  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  ParallelConfig config = ParallelConfig::WithThreads(4);
  config.grain_size = 4;
  const FndResult first = FastNucleusDecompositionParallel(space, config);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const FndResult again = FastNucleusDecompositionParallel(space, config);
    EXPECT_EQ(again.peel.lambda, first.peel.lambda) << repeat;
    EXPECT_EQ(again.build.comp, first.build.comp) << repeat;
    EXPECT_EQ(SkeletonImage(again.build.skeleton),
              SkeletonImage(first.build.skeleton))
        << repeat;
  }
}

class ParallelDecomposeZoo : public ::testing::TestWithParam<GraphCase> {};

TEST_P(ParallelDecomposeZoo, ThreadedDecomposeMatchesSerialCanonically) {
  // The public entry point: Decompose with a threaded ParallelConfig must
  // build the serial default's hierarchy, node for node, for every family
  // and the hierarchy algorithms that build trees.
  const Graph g = GetParam().make();
  for (const Family family :
       {Family::kCore12, Family::kTruss23, Family::kNucleus34}) {
    for (const Algorithm algorithm : {Algorithm::kFnd, Algorithm::kDft}) {
      SCOPED_TRACE(::testing::Message()
                   << FamilyName(family) << "/" << AlgorithmName(algorithm));
      DecomposeOptions serial_options;
      serial_options.family = family;
      serial_options.algorithm = algorithm;
      const DecompositionResult serial = Decompose(g, serial_options);

      DecomposeOptions threaded_options = serial_options;
      threaded_options.parallel = ParallelConfig::WithThreads(4);
      threaded_options.parallel.grain_size = 16;
      const DecompositionResult threaded = Decompose(g, threaded_options);

      EXPECT_EQ(threaded.peel.lambda, serial.peel.lambda);
      EXPECT_EQ(threaded.peel.max_lambda, serial.peel.max_lambda);
      testing_util::ExpectHierarchyEqual(threaded.hierarchy,
                                         serial.hierarchy);
    }
  }
}

TEST_P(ParallelDecomposeZoo, EveryAlgorithmAndThreadCountSavesIdenticalBytes) {
  // Canonical numbering end to end: DFT, FND and LCPS ((1,2) only), serial
  // and threaded, write the same hierarchy, index and member-store
  // sections; only the meta's algorithm field tells them apart.
  const Graph g = GetParam().make();
  for (const Family family :
       {Family::kCore12, Family::kTruss23, Family::kNucleus34}) {
    std::vector<Algorithm> algorithms{Algorithm::kDft, Algorithm::kFnd};
    if (family == Family::kCore12) algorithms.push_back(Algorithm::kLcps);
    std::string first;  // the serial DFT run's bytes
    for (const Algorithm algorithm : algorithms) {
      for (const int threads : kThreadSweep) {
        SCOPED_TRACE(::testing::Message()
                     << FamilyName(family) << "/" << AlgorithmName(algorithm)
                     << " threads=" << threads);
        DecomposeOptions options;
        options.family = family;
        options.algorithm = algorithm;
        options.parallel = ParallelConfig::WithThreads(threads);
        options.parallel.grain_size = 16;
        const std::string bytes = testing_util::SavedBytesSansAlgorithm(
            MakeSnapshot(g, options, Decompose(g, options), false),
            GetParam().name + "_" + std::to_string(static_cast<int>(family)) +
                "_" + AlgorithmName(algorithm) + "_t" +
                std::to_string(threads));
        if (first.empty()) {
          first = bytes;
        } else {
          EXPECT_EQ(bytes, first);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, ParallelDecomposeZoo,
                         ::testing::ValuesIn(GraphZoo()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace nucleus
