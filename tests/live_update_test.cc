// Live snapshot updates end to end: LiveUpdater validation, the
// acceptance-bar equivalence (after ApplyUpdate every QueryEngine answer is
// byte-identical to a fresh decompose+load of the edited graph), and the
// concurrent update-while-querying suite the TSan CI matrix runs at
// threads in {2, 4, 8}.
#include "nucleus/serve/live_update.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/rng.h"
#include "nucleus/util/mutex.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::GraphZoo;
using testing_util::TempPath;

/// Apply() requires the updater's apply mutex at compile time; tests
/// take it the same way concurrent production callers do.
StatusOr<LiveUpdater::Result> LockedApply(LiveUpdater& updater,
                                          std::span<const EdgeEdit> edits) {
  MutexLock lock(updater.apply_mutex());
  return updater.Apply(edits);
}

SnapshotData BuildCoreSnapshot(const Graph& g, bool with_index = true) {
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kDft;
  return MakeSnapshot(g, options, Decompose(g, options), with_index);
}

std::vector<EdgeEdit> RandomEdits(const IncrementalCoreMaintainer& maintainer,
                                  Rng& rng, int count) {
  std::vector<EdgeEdit> edits;
  const VertexId n = maintainer.NumVertices();
  while (static_cast<int>(edits.size()) < count) {
    EdgeEdit edit;
    edit.u = rng.UniformVertex(n);
    edit.v = rng.UniformVertex(n);
    if (edit.u == edit.v) continue;
    edit.op = maintainer.HasEdge(edit.u, edit.v) ? EdgeEditOp::kRemove
                                                 : EdgeEditOp::kInsert;
    edits.push_back(edit);
  }
  return edits;
}

/// Every query kind over the whole id space of `engine`.
std::vector<QueryEngine::Query> FullWorkload(std::int64_t num_cliques,
                                             std::int64_t num_nodes,
                                             Lambda max_lambda) {
  std::vector<QueryEngine::Query> workload;
  for (std::int64_t u = 0; u < num_cliques; ++u) {
    workload.push_back({QueryEngine::QueryKind::kLambda, u, 0});
    for (Lambda k = 1; k <= max_lambda; ++k) {
      workload.push_back({QueryEngine::QueryKind::kNucleus, u, k});
    }
    workload.push_back(
        {QueryEngine::QueryKind::kCommon, u, (u + 1) % num_cliques});
    workload.push_back(
        {QueryEngine::QueryKind::kLevel, u, (u * 7 + 3) % num_cliques});
  }
  for (std::int64_t node = 0; node < num_nodes; ++node) {
    workload.push_back({QueryEngine::QueryKind::kMembers, node, 0});
  }
  workload.push_back({QueryEngine::QueryKind::kTop, num_nodes + 1, 0});
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
    EXPECT_EQ(a.top[i].size, b.top[i].size);
  }
  ASSERT_EQ(a.members == nullptr, b.members == nullptr);
  if (a.members != nullptr) {
    EXPECT_EQ(*a.members, *b.members);
  }
}

// ---------------------------------------------------------------------------
// LiveUpdater validation.

TEST(LiveUpdate, CreateRejectsMismatchedPairings) {
  const Graph g = testing_util::PaperFigure2Graph();
  const SnapshotData snapshot = BuildCoreSnapshot(g);

  // Wrong family.
  DecomposeOptions truss;
  truss.family = Family::kTruss23;
  truss.algorithm = Algorithm::kFnd;
  const SnapshotData truss_snapshot =
      MakeSnapshot(g, truss, Decompose(g, truss), false);
  auto wrong_family = LiveUpdater::Create(g, truss_snapshot);
  EXPECT_FALSE(wrong_family.ok());
  EXPECT_NE(wrong_family.status().message().find("(1,2)"),
            std::string::npos);

  // Wrong graph (same-size but different edges, and different-size).
  EXPECT_FALSE(LiveUpdater::Create(Cycle(10), snapshot).ok());
  EXPECT_FALSE(LiveUpdater::Create(Cycle(9), snapshot).ok());

  // Matching pairing succeeds.
  EXPECT_TRUE(LiveUpdater::Create(g, snapshot).ok());
}

TEST(LiveUpdate, FndBuiltSnapshotTakesBatchesLikeAFreshBuild) {
  // The default `decompose` algorithm, serial and threaded: its snapshot
  // pairs with an updater, and every post-state is byte-identical (node
  // numbering and the meta's algorithm field included) to a fresh build of
  // the edited graph by the same algorithm.
  const Graph g = RMat(7, 300, 0.5, 0.2, 0.2, 37);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    DecomposeOptions fnd;
    fnd.family = Family::kCore12;
    fnd.algorithm = Algorithm::kFnd;
    fnd.parallel = ParallelConfig::WithThreads(threads);
    auto updater = LiveUpdater::Create(
        g, MakeSnapshot(g, fnd, Decompose(g, fnd), false));
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    Rng rng(31 + threads);
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(round);
      auto result =
          LockedApply(**updater, RandomEdits((*updater)->maintainer(), rng, 6));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_TRUE(result->changed);
      const Graph edited = (*updater)->maintainer().ToGraph();
      const SnapshotData fresh =
          MakeSnapshot(edited, fnd, Decompose(edited, fnd), false);
      EXPECT_EQ(result->snapshot.peel.lambda, fresh.peel.lambda);
      testing_util::ExpectHierarchyEqual(result->snapshot.hierarchy,
                                         fresh.hierarchy);
      const std::string stem = "live_fnd_t" + std::to_string(threads) +
                               "_" + std::to_string(round);
      EXPECT_EQ(testing_util::SavedBytes(result->snapshot, stem + "_post"),
                testing_util::SavedBytes(fresh, stem + "_fresh"));
    }
  }
}

TEST(LiveUpdate, AllSkippedBatchLeavesServedStateUntouched) {
  const Graph g = testing_util::PaperFigure2Graph();
  SnapshotData snapshot = BuildCoreSnapshot(g);
  auto updater = LiveUpdater::Create(g, snapshot);
  ASSERT_TRUE(updater.ok());
  const std::unique_ptr<QueryEngine> engine_ptr =
      QueryEngine::FromSnapshotData(std::move(snapshot));
  QueryEngine& engine = *engine_ptr;
  engine.Members(1);  // warm one cache entry
  const LruCacheStats warm = engine.CacheStats();

  // A duplicate insert and a missing removal: valid no-ops.
  const std::vector<EdgeEdit> noops{{0, 1, EdgeEditOp::kInsert},
                                    {0, 9, EdgeEditOp::kRemove}};
  auto result = LockedApply(**updater, noops);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->changed);
  EXPECT_EQ(result->report.applied, 0);
  EXPECT_EQ(result->report.skipped, 2);
  // The delta is still a valid (empty-patch) chain record...
  EXPECT_EQ(result->delta.parent_fingerprint,
            result->delta.child_fingerprint);
  EXPECT_TRUE(result->delta.patched_ids.empty());
  // ...and no state was materialized, so nothing to swap: the serve loop
  // keeps the engine (and its warm cache) as-is.
  std::istringstream in("update 0 1 +\nlambda 0\n");
  std::ostringstream out;
  const ServeStats stats =
      ServeRequests(engine, updater->get(), in, out);
  EXPECT_EQ(stats.updates, 1);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_NE(out.str().find("\"applied\": false"), std::string::npos);
  EXPECT_EQ(engine.UpdateEpoch(), 0);  // no swap happened
  engine.Members(1);
  EXPECT_EQ(engine.CacheStats().hits, warm.hits + 1);  // still cached
}

TEST(LiveUpdate, ApplyRejectsInvalidEditsAtomically) {
  const Graph g = testing_util::PaperFigure2Graph();
  const SnapshotData snapshot = BuildCoreSnapshot(g);
  auto updater = LiveUpdater::Create(g, snapshot);
  ASSERT_TRUE(updater.ok());
  const std::uint64_t before = (*updater)->maintainer().edge_set_fingerprint();

  // A batch with one bad edit applies nothing, even if earlier edits were
  // valid.
  const std::vector<EdgeEdit> bad{{0, 5, EdgeEditOp::kInsert},
                                  {0, 99, EdgeEditOp::kInsert}};
  EXPECT_FALSE(LockedApply(**updater, bad).ok());
  const std::vector<EdgeEdit> self{{3, 3, EdgeEditOp::kInsert}};
  EXPECT_FALSE(LockedApply(**updater, self).ok());
  const std::vector<EdgeEdit> negative{{-1, 2, EdgeEditOp::kRemove}};
  EXPECT_FALSE(LockedApply(**updater, negative).ok());
  EXPECT_EQ((*updater)->maintainer().edge_set_fingerprint(), before);
  EXPECT_EQ((*updater)->NumEdges(), g.NumEdges());
}

// ---------------------------------------------------------------------------
// The acceptance bar: after ApplyUpdate, EVERY answer (lambda / nucleus /
// common / level / top-k / members) is byte-identical to a fresh
// decompose+load of the edited graph.

class LiveUpdateEquivalenceTest
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(LiveUpdateEquivalenceTest, UpdatedEngineMatchesFreshDecomposeAndLoad) {
  const Graph g = GetParam().make();
  if (g.NumVertices() < 4) return;
  SnapshotData snapshot = BuildCoreSnapshot(g);
  auto updater = LiveUpdater::Create(g, snapshot);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();
  const std::unique_ptr<QueryEngine> engine_ptr =
      QueryEngine::FromSnapshotData(std::move(snapshot));
  QueryEngine& engine = *engine_ptr;
  Rng rng(4242);

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    const std::vector<EdgeEdit> edits =
        RandomEdits((*updater)->maintainer(), rng, 5);
    auto result = LockedApply(**updater, edits);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(engine.ApplyUpdate(std::move(result->snapshot)).ok());
    EXPECT_EQ(engine.UpdateEpoch(), round + 1);

    // Fresh decompose of the edited graph, THROUGH the snapshot store
    // (save + load), served by a new engine.
    const Graph edited = (*updater)->maintainer().ToGraph();
    const std::string path = TempPath(
        "live_eq_" + GetParam().name + "_" + std::to_string(round) +
        ".nucsnap");
    ASSERT_TRUE(SaveSnapshotV2(BuildCoreSnapshot(edited), path).ok());
    StatusOr<SnapshotData> loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const std::unique_ptr<QueryEngine> fresh_ptr =
        QueryEngine::FromSnapshotData(std::move(*loaded));
    const QueryEngine& fresh = *fresh_ptr;
    std::remove(path.c_str());

    ASSERT_EQ(engine.meta().max_lambda, fresh.meta().max_lambda);
    const auto workload =
        FullWorkload(engine.NumCliques(), engine.NumNodes(),
                     engine.meta().max_lambda);
    for (const auto& query : workload) {
      ExpectResponsesEqual(engine.Run(query), fresh.Run(query));
    }
    // Serialized protocol answers (what clients actually see) match too.
    for (std::size_t i = 0; i < workload.size(); i += 17) {
      EXPECT_EQ(ResponseToJson(workload[i], engine.Run(workload[i])),
                ResponseToJson(workload[i], fresh.Run(workload[i])));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, LiveUpdateEquivalenceTest,
                         ::testing::ValuesIn(GraphZoo()),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Engine-level ApplyUpdate semantics.

TEST(LiveUpdate, ApplyUpdateRejectsMismatchedState) {
  const Graph g = testing_util::PaperFigure2Graph();
  const std::unique_ptr<QueryEngine> engine_ptr =
      QueryEngine::FromSnapshotData(BuildCoreSnapshot(g));
  QueryEngine& engine = *engine_ptr;
  // Different vertex count.
  EXPECT_FALSE(engine.ApplyUpdate(BuildCoreSnapshot(Cycle(12))).ok());
  // Different family.
  DecomposeOptions truss;
  truss.family = Family::kTruss23;
  truss.algorithm = Algorithm::kFnd;
  EXPECT_FALSE(
      engine
          .ApplyUpdate(MakeSnapshot(g, truss, Decompose(g, truss), false))
          .ok());
  EXPECT_EQ(engine.UpdateEpoch(), 0);
}

TEST(LiveUpdate, MembersSharedPtrSurvivesAnUpdate) {
  const Graph g = testing_util::PaperFigure2Graph();
  SnapshotData snapshot = BuildCoreSnapshot(g);
  auto updater = LiveUpdater::Create(g, snapshot);
  ASSERT_TRUE(updater.ok());
  const std::unique_ptr<QueryEngine> engine_ptr =
      QueryEngine::FromSnapshotData(std::move(snapshot));
  QueryEngine& engine = *engine_ptr;

  const auto members_before = engine.Members(1);
  const std::vector<CliqueId> copy = *members_before;
  const std::vector<EdgeEdit> edits{{3, 8, EdgeEditOp::kRemove}};
  auto result = LockedApply(**updater, edits);
  ASSERT_TRUE(result.ok());
  const NucleusHierarchy updated_hierarchy = result->snapshot.hierarchy;
  ASSERT_TRUE(engine.ApplyUpdate(std::move(result->snapshot)).ok());
  // The pre-update materialization is still alive and unchanged; new
  // queries see the new state (epoch-prefixed cache keys, no flush).
  EXPECT_EQ(*members_before, copy);
  EXPECT_EQ(*engine.Members(1),
            updated_hierarchy.MembersOfSubtree(1));
}

// ---------------------------------------------------------------------------
// Concurrent update-while-querying: the TSan suite. Readers hammer
// RunBatch while a writer applies edit batches; once the writer is done,
// the final state must equal a fresh decomposition, and every in-flight
// batch must have been answered from ONE coherent state (verified via the
// lambda/members cross-check inside each batch).

class LiveUpdateConcurrentTest : public ::testing::TestWithParam<int> {};

TEST_P(LiveUpdateConcurrentTest, UpdatesWhileQueryingAreNeverTorn) {
  const int reader_threads = GetParam();
  const Graph g = ErdosRenyiGnp(60, 0.10, 11);
  SnapshotData snapshot = BuildCoreSnapshot(g);
  auto updater = LiveUpdater::Create(g, snapshot);
  ASSERT_TRUE(updater.ok());
  const std::unique_ptr<QueryEngine> engine_ptr =
      QueryEngine::FromSnapshotData(std::move(snapshot));
  QueryEngine& engine = *engine_ptr;

  const std::int64_t n = engine.NumCliques();
  std::vector<QueryEngine::Query> batch;
  for (std::int64_t u = 0; u < n; ++u) {
    batch.push_back({QueryEngine::QueryKind::kLambda, u, 0});
  }
  batch.push_back({QueryEngine::QueryKind::kTop, 5, 0});
  batch.push_back({QueryEngine::QueryKind::kMembers, 0, 0});

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> batches_served{0};
  std::vector<std::thread> readers;
  readers.reserve(static_cast<std::size_t>(reader_threads));
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&] {
      ThreadPool pool(2);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto responses = engine.RunBatch(batch, pool);
        // Torn-state check: the members query at the end materializes the
        // root subtree of the SAME state the lambda answers came from, so
        // its size must be n (every state keeps |V| fixed) and each
        // response must be OK.
        for (const auto& response : responses) {
          ASSERT_TRUE(response.status.ok()) << response.status.ToString();
        }
        ASSERT_NE(responses.back().members, nullptr);
        ASSERT_EQ(responses.back().members->size(),
                  static_cast<std::size_t>(n));
        batches_served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(5);
  for (int round = 0; round < 12; ++round) {
    const std::vector<EdgeEdit> edits =
        RandomEdits((*updater)->maintainer(), rng, 4);
    auto result = LockedApply(**updater, edits);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(engine.ApplyUpdate(std::move(result->snapshot)).ok());
  }
  // Let the readers observe the final state before stopping.
  while (batches_served.load(std::memory_order_relaxed) <
         reader_threads * 4) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  // Final served answers equal a fresh decomposition of the final graph.
  const Graph final_graph = (*updater)->maintainer().ToGraph();
  const std::unique_ptr<QueryEngine> fresh_ptr =
      QueryEngine::FromSnapshotData(BuildCoreSnapshot(final_graph, false));
  const QueryEngine& fresh = *fresh_ptr;
  const auto workload = FullWorkload(
      n, engine.NumNodes(), engine.meta().max_lambda);
  for (const auto& query : workload) {
    ExpectResponsesEqual(engine.Run(query), fresh.Run(query));
  }
  EXPECT_EQ(engine.UpdateEpoch(), 12);
}

INSTANTIATE_TEST_SUITE_P(Threads, LiveUpdateConcurrentTest,
                         ::testing::Values(2, 4, 8),
                         [](const auto& info) {
                           std::string name = "t";
                           return name.append(std::to_string(info.param));
                         });

// Concurrent serve sessions with interleaved update verbs: one mutable
// session at a time (the protocol is line-ordered), but the engine also
// serves read-only batches from other threads meanwhile.
TEST(LiveUpdateConcurrent, ServeSessionWithUpdatesWhileBatchesRun) {
  const Graph g = Caveman(4, 8, 6, 29);
  SnapshotData snapshot = BuildCoreSnapshot(g);
  auto updater = LiveUpdater::Create(g, snapshot);
  ASSERT_TRUE(updater.ok());
  const std::unique_ptr<QueryEngine> engine_ptr =
      QueryEngine::FromSnapshotData(std::move(snapshot));
  QueryEngine& engine = *engine_ptr;

  std::pair<VertexId, VertexId> removal{kInvalidId, kInvalidId};
  g.ForEachEdge([&](VertexId u, VertexId v) {
    if (removal.first == kInvalidId) removal = {u, v};
  });

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::vector<QueryEngine::Query> batch;
    for (std::int64_t u = 0; u < engine.NumCliques(); ++u) {
      batch.push_back({QueryEngine::QueryKind::kLambda, u, 0});
    }
    ThreadPool pool(2);
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& response : engine.RunBatch(batch, pool)) {
        ASSERT_TRUE(response.status.ok());
      }
    }
  });

  std::string script;
  script += "lambda 0\n";
  script += "update " + std::to_string(removal.first) + " " +
            std::to_string(removal.second) + " -\n";
  script += "lambda " + std::to_string(removal.first) + "\n";
  script += "update " + std::to_string(removal.first) + " " +
            std::to_string(removal.second) + " +\n";
  script += "top 3\n";
  std::istringstream in(script);
  std::ostringstream out;
  ServeOptions options;
  options.parallel.num_threads = 2;
  const ServeStats stats =
      ServeRequests(engine, updater->get(), in, out, options);
  EXPECT_EQ(stats.updates, 2);
  EXPECT_EQ(stats.errors, 0);
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Insert-then-remove of the same edge restores the original answers.
  const std::unique_ptr<QueryEngine> fresh_ptr =
      QueryEngine::FromSnapshotData(BuildCoreSnapshot(g, false));
  const QueryEngine& fresh = *fresh_ptr;
  for (std::int64_t u = 0; u < engine.NumCliques(); ++u) {
    ExpectResponsesEqual(
        engine.Run({QueryEngine::QueryKind::kLambda, u, 0}),
        fresh.Run({QueryEngine::QueryKind::kLambda, u, 0}));
  }
}

}  // namespace
}  // namespace nucleus
