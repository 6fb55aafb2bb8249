#include "nucleus/core/decomposition.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace nucleus {
namespace {

TEST(Decompose, FndCoreOnFigure2) {
  const Graph g = testing_util::PaperFigure2Graph();
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kFnd;
  const DecompositionResult r = Decompose(g, options);
  EXPECT_EQ(r.num_cliques, 10);
  EXPECT_EQ(r.peel.max_lambda, 3);
  EXPECT_EQ(r.hierarchy.NumNuclei(), 3);
  EXPECT_GT(r.num_subnuclei, 0);
  EXPECT_GE(r.timings.total_seconds, 0.0);
}

TEST(Decompose, AllAlgorithmsSameLambdaAllFamilies) {
  const Graph g = PlantedPartition(3, 10, 0.6, 0.1, 71);
  for (Family family :
       {Family::kCore12, Family::kTruss23, Family::kNucleus34}) {
    std::vector<Lambda> reference;
    for (Algorithm algorithm : {Algorithm::kNaive, Algorithm::kDft,
                                Algorithm::kFnd, Algorithm::kHypo}) {
      DecomposeOptions options;
      options.family = family;
      options.algorithm = algorithm;
      const DecompositionResult r = Decompose(g, options);
      if (reference.empty()) {
        reference = r.peel.lambda;
      } else {
        EXPECT_EQ(r.peel.lambda, reference)
            << FamilyName(family) << " " << AlgorithmName(algorithm);
      }
    }
  }
}

TEST(Decompose, NaiveCollectsNucleiWhenAsked) {
  const Graph g = Complete(5);
  DecomposeOptions options;
  options.family = Family::kTruss23;
  options.algorithm = Algorithm::kNaive;
  options.collect_nuclei = true;
  const DecompositionResult r = Decompose(g, options);
  ASSERT_EQ(r.nuclei.size(), 1u);
  EXPECT_EQ(r.nuclei[0].k, 3);
  EXPECT_EQ(r.naive_num_nuclei, 1);
}

TEST(Decompose, NaiveSkipsCollectionByDefault) {
  const Graph g = Complete(5);
  DecomposeOptions options;
  options.algorithm = Algorithm::kNaive;
  const DecompositionResult r = Decompose(g, options);
  EXPECT_TRUE(r.nuclei.empty());
  EXPECT_EQ(r.naive_num_nuclei, 1);
}

TEST(Decompose, BuildTreeFalseSkipsHierarchy) {
  const Graph g = Complete(5);
  DecomposeOptions options;
  options.algorithm = Algorithm::kFnd;
  options.build_tree = false;
  const DecompositionResult r = Decompose(g, options);
  EXPECT_EQ(r.hierarchy.NumNodes(), 0);
  EXPECT_GT(r.num_subnuclei, 0);
}

TEST(Decompose, LcpsCoreWorks) {
  const Graph g = testing_util::PaperFigure2Graph();
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kLcps;
  const DecompositionResult r = Decompose(g, options);
  EXPECT_EQ(r.hierarchy.NumNuclei(), 3);
}

TEST(DecomposeDeathTest, LcpsRejectsOtherFamilies) {
  const Graph g = Complete(4);
  DecomposeOptions options;
  options.family = Family::kTruss23;
  options.algorithm = Algorithm::kLcps;
  EXPECT_DEATH(Decompose(g, options), "LCPS");
}

TEST(Decompose, IndexTimeOnlyForHigherOrders) {
  const Graph g = Complete(6);
  DecomposeOptions options;
  options.algorithm = Algorithm::kFnd;
  options.family = Family::kCore12;
  EXPECT_EQ(Decompose(g, options).timings.index_seconds, 0.0);
  options.family = Family::kNucleus34;
  EXPECT_GE(Decompose(g, options).timings.index_seconds, 0.0);
}

TEST(Decompose, TreeTimeOnlyWithBuildTreeAndOutsideTotal) {
  const Graph g = PlantedPartition(3, 10, 0.6, 0.1, 71);
  DecomposeOptions options;
  options.family = Family::kTruss23;
  for (Algorithm algorithm : {Algorithm::kDft, Algorithm::kFnd}) {
    options.algorithm = algorithm;
    options.build_tree = true;
    const PhaseTimings built = Decompose(g, options).timings;
    EXPECT_GE(built.tree_seconds, 0.0);
    EXPECT_DOUBLE_EQ(built.total_seconds, built.index_seconds +
                                              built.peel_seconds +
                                              built.traverse_seconds);
    options.build_tree = false;
    EXPECT_EQ(Decompose(g, options).timings.tree_seconds, 0.0);
  }
}

TEST(Decompose, NumCliquesPerFamily) {
  const Graph g = Complete(5);
  DecomposeOptions options;
  options.algorithm = Algorithm::kFnd;
  options.family = Family::kCore12;
  EXPECT_EQ(Decompose(g, options).num_cliques, 5);
  options.family = Family::kTruss23;
  EXPECT_EQ(Decompose(g, options).num_cliques, 10);
  options.family = Family::kNucleus34;
  EXPECT_EQ(Decompose(g, options).num_cliques, 10);
}

TEST(MembersToVertices, Core12Identity) {
  const Graph g = Path(5);
  const auto vs = MembersToVertices(g, Family::kCore12, {3, 1, 4});
  EXPECT_EQ(vs, (std::vector<VertexId>{1, 3, 4}));
}

TEST(MembersToVertices, Truss23EndpointUnion) {
  const Graph g = Complete(3);  // edges: 0:{0,1} 1:{0,2} 2:{1,2}
  const auto vs = MembersToVertices(g, Family::kTruss23, {0, 2});
  EXPECT_EQ(vs, (std::vector<VertexId>{0, 1, 2}));
}

TEST(MembersToVertices, Nucleus34VertexUnion) {
  const Graph g = Complete(4);
  const auto vs = MembersToVertices(g, Family::kNucleus34, {0});
  EXPECT_EQ(vs.size(), 3u);
}

TEST(Names, HumanReadable) {
  EXPECT_STREQ(FamilyName(Family::kTruss23), "(2,3) k-truss");
  EXPECT_STREQ(AlgorithmName(Algorithm::kFnd), "FND");
  EXPECT_STREQ(AlgorithmName(Algorithm::kHypo), "Hypo");
}

}  // namespace
}  // namespace nucleus
