#include "nucleus/serve/query_engine.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/core/hierarchy_index.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/rng.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::GraphZoo;
using testing_util::TempPath;

SnapshotData BuildSnapshot(const Graph& g, Family family, bool with_index) {
  DecomposeOptions options;
  options.family = family;
  options.algorithm = Algorithm::kFnd;
  const DecompositionResult result = Decompose(g, options);
  return MakeSnapshot(g, options, result, with_index);
}

/// A deterministic mixed workload covering every query kind.
std::vector<QueryEngine::Query> MakeWorkload(const QueryEngine& engine,
                                             std::int64_t count,
                                             std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t num_cliques = engine.NumCliques();
  const std::int64_t num_nodes = engine.NumNodes();
  const Lambda max_lambda = engine.meta().max_lambda;
  std::vector<QueryEngine::Query> workload;
  workload.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    QueryEngine::Query query;
    switch (rng.UniformInt(0, 5)) {
      case 0:
        query.kind = QueryEngine::QueryKind::kLambda;
        query.a = rng.UniformInt(0, num_cliques - 1);
        break;
      case 1:
        if (max_lambda < 1) {  // no valid k exists; fall back to lambda
          query.kind = QueryEngine::QueryKind::kLambda;
          query.a = rng.UniformInt(0, num_cliques - 1);
          break;
        }
        query.kind = QueryEngine::QueryKind::kNucleus;
        query.a = rng.UniformInt(0, num_cliques - 1);
        query.b = rng.UniformInt(1, max_lambda);
        break;
      case 2:
        query.kind = QueryEngine::QueryKind::kCommon;
        query.a = rng.UniformInt(0, num_cliques - 1);
        query.b = rng.UniformInt(0, num_cliques - 1);
        break;
      case 3:
        query.kind = QueryEngine::QueryKind::kLevel;
        query.a = rng.UniformInt(0, num_cliques - 1);
        query.b = rng.UniformInt(0, num_cliques - 1);
        break;
      case 4:
        query.kind = QueryEngine::QueryKind::kTop;
        query.a = rng.UniformInt(0, 8);
        break;
      default:
        query.kind = QueryEngine::QueryKind::kMembers;
        query.a = rng.UniformInt(0, num_nodes - 1);
        break;
    }
    workload.push_back(query);
  }
  return workload;
}

void ExpectResponsesEqual(const QueryEngine::Response& a,
                          const QueryEngine::Response& b) {
  ASSERT_EQ(a.status.ok(), b.status.ok());
  EXPECT_EQ(a.status.message(), b.status.message());
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.nucleus.node, b.nucleus.node);
  EXPECT_EQ(a.nucleus.k, b.nucleus.k);
  EXPECT_EQ(a.nucleus.size, b.nucleus.size);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].node, b.top[i].node);
    EXPECT_EQ(a.top[i].k, b.top[i].k);
  }
  ASSERT_EQ(a.members == nullptr, b.members == nullptr);
  if (a.members != nullptr) {
    EXPECT_EQ(*a.members, *b.members);
  }
}

// ---------------------------------------------------------------------------
// Answers are identical to direct HierarchyIndex / NucleusHierarchy calls,
// and identical under concurrent batches for threads in {1, 2, 4, 8} —
// the PR's acceptance sweep.

class QueryEngineZooTest
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(QueryEngineZooTest, MatchesDirectIndexAndIsThreadCountInvariant) {
  const Graph g = GetParam().make();
  for (Family family : {Family::kCore12, Family::kTruss23}) {
    SnapshotData snapshot = BuildSnapshot(g, family, true);
    // Reference answers from a plain HierarchyIndex over the same data.
    const NucleusHierarchy reference_hierarchy = snapshot.hierarchy;
    const std::vector<Lambda> reference_lambda = snapshot.peel.lambda;
    const HierarchyIndex reference(reference_hierarchy);

    const std::unique_ptr<QueryEngine> engine_ptr =
        QueryEngine::FromSnapshotData(std::move(snapshot));
    const QueryEngine& engine = *engine_ptr;
    if (engine.NumCliques() == 0) continue;
    const auto workload = MakeWorkload(engine, 160, 77);

    std::vector<QueryEngine::Response> serial;
    serial.reserve(workload.size());
    for (const auto& query : workload) serial.push_back(engine.Run(query));

    // 1. Serial responses match the core-layer answers.
    for (std::size_t i = 0; i < workload.size(); ++i) {
      const auto& query = workload[i];
      const auto& response = serial[i];
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      switch (query.kind) {
        case QueryEngine::QueryKind::kLambda:
          EXPECT_EQ(response.lambda,
                    reference_lambda[static_cast<std::size_t>(query.a)]);
          break;
        case QueryEngine::QueryKind::kNucleus: {
          const std::int32_t node = reference.NucleusAtLevel(
              static_cast<CliqueId>(query.a), static_cast<Lambda>(query.b));
          EXPECT_EQ(response.found, node != kInvalidId);
          if (node != kInvalidId) {
            EXPECT_EQ(response.nucleus.node, node);
            EXPECT_EQ(response.nucleus.k,
                      reference_hierarchy.node(node).lambda);
            EXPECT_EQ(response.nucleus.size,
                      reference_hierarchy.node(node).subtree_members);
          }
          break;
        }
        case QueryEngine::QueryKind::kCommon: {
          const std::int32_t node = reference.SmallestCommonNucleus(
              static_cast<CliqueId>(query.a),
              static_cast<CliqueId>(query.b));
          EXPECT_EQ(response.found, node != kInvalidId);
          if (node != kInvalidId) {
            EXPECT_EQ(response.nucleus.node, node);
          }
          break;
        }
        case QueryEngine::QueryKind::kLevel:
          EXPECT_EQ(response.lambda,
                    reference.CommonNucleusLevel(
                        static_cast<CliqueId>(query.a),
                        static_cast<CliqueId>(query.b)));
          break;
        case QueryEngine::QueryKind::kTop:
          for (std::size_t j = 1; j < response.top.size(); ++j) {
            EXPECT_GE(response.top[j - 1].k, response.top[j].k);
          }
          break;
        case QueryEngine::QueryKind::kMembers:
          ASSERT_NE(response.members, nullptr);
          EXPECT_EQ(*response.members,
                    reference_hierarchy.MembersOfSubtree(
                        static_cast<std::int32_t>(query.a)));
          break;
      }
    }

    // 2. Concurrent batches reproduce the serial answers for every thread
    //    count.
    for (int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      const auto batch = engine.RunBatch(workload, pool);
      ASSERT_EQ(batch.size(), serial.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ExpectResponsesEqual(serial[i], batch[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, QueryEngineZooTest,
                         ::testing::ValuesIn(GraphZoo()),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Snapshot-loaded engines answer exactly like fresh-decompose engines.

TEST(QueryEngine, SnapshotLoadedEngineMatchesFreshEngine) {
  const Graph g = Caveman(4, 8, 6, 29);
  SnapshotData fresh = BuildSnapshot(g, Family::kTruss23, true);
  const std::string path = TempPath("engine_roundtrip.nucsnap");
  ASSERT_TRUE(SaveSnapshotV2(fresh, path).ok());
  StatusOr<SnapshotData> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const std::unique_ptr<QueryEngine> fresh_engine =
      QueryEngine::FromSnapshotData(std::move(fresh));
  const std::unique_ptr<QueryEngine> loaded_engine =
      QueryEngine::FromSnapshotData(std::move(*loaded));
  const auto workload = MakeWorkload(*fresh_engine, 200, 13);
  for (const auto& query : workload) {
    ExpectResponsesEqual(fresh_engine->Run(query), loaded_engine->Run(query));
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Engine-level validation and the member cache.

TEST(QueryEngine, RejectsOutOfRangeInput) {
  const std::unique_ptr<QueryEngine> engine_ptr =
      QueryEngine::FromSnapshotData(BuildSnapshot(
          testing_util::PaperFigure2Graph(), Family::kCore12, false));
  const QueryEngine& engine = *engine_ptr;
  EXPECT_FALSE(
      engine.Run({QueryEngine::QueryKind::kLambda, -1, 0}).status.ok());
  EXPECT_FALSE(
      engine.Run({QueryEngine::QueryKind::kLambda, 10000, 0}).status.ok());
  EXPECT_FALSE(
      engine.Run({QueryEngine::QueryKind::kNucleus, 0, 0}).status.ok());
  EXPECT_FALSE(
      engine.Run({QueryEngine::QueryKind::kNucleus, 0, 99}).status.ok());
  EXPECT_FALSE(
      engine.Run({QueryEngine::QueryKind::kCommon, 0, -3}).status.ok());
  EXPECT_FALSE(
      engine.Run({QueryEngine::QueryKind::kMembers, 4096, 0}).status.ok());
  EXPECT_FALSE(
      engine.Run({QueryEngine::QueryKind::kTop, -1, 0}).status.ok());
  // Valid queries still succeed.
  EXPECT_TRUE(
      engine.Run({QueryEngine::QueryKind::kLambda, 0, 0}).status.ok());
}

TEST(QueryEngine, TopKDensestIsSortedAndComplete) {
  const std::unique_ptr<QueryEngine> engine_ptr =
      QueryEngine::FromSnapshotData(BuildSnapshot(
          testing_util::PaperFigure2Graph(), Family::kCore12, false));
  const QueryEngine& engine = *engine_ptr;
  // Figure 2: two k=3 nuclei (the K4s) and one k=2 nucleus.
  const auto top = engine.TopKDensest(10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].k, 3);
  EXPECT_EQ(top[1].k, 3);
  EXPECT_EQ(top[2].k, 2);
  EXPECT_LT(top[0].node, top[1].node);  // deterministic tiebreak
  EXPECT_EQ(engine.TopKDensest(1).size(), 1u);
  EXPECT_EQ(engine.TopKDensest(0).size(), 0u);
}

TEST(QueryEngine, MemberCacheHitsAndEvicts) {
  QueryEngineOptions options;
  options.cache_shards = 2;
  options.cache_entries_per_shard = 1;
  SnapshotData snapshot = BuildSnapshot(testing_util::PaperFigure2Graph(),
                                        Family::kCore12, false);
  const NucleusHierarchy reference_hierarchy = snapshot.hierarchy;
  const std::unique_ptr<QueryEngine> engine_ptr =
      QueryEngine::FromSnapshotData(std::move(snapshot), options);
  const QueryEngine& engine = *engine_ptr;
  const std::int64_t num_nodes = engine.NumNodes();
  ASSERT_GE(num_nodes, 3);  // root + 2-core + two 3-cores

  auto first = engine.Members(1);
  auto again = engine.Members(1);
  EXPECT_EQ(*first, *again);
  LruCacheStats stats = engine.CacheStats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);

  // Touch every node repeatedly: with capacity 2 entries total, evictions
  // must occur, and answers stay correct throughout.
  for (int round = 0; round < 3; ++round) {
    for (std::int32_t node = 0; node < num_nodes; ++node) {
      EXPECT_EQ(*engine.Members(node),
                reference_hierarchy.MembersOfSubtree(node));
    }
  }
  stats = engine.CacheStats();
  EXPECT_GT(stats.evictions, 0);
  // A shared_ptr obtained before an eviction stays valid.
  EXPECT_FALSE(first->empty());
}

}  // namespace
}  // namespace nucleus
