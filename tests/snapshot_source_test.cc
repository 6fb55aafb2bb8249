// SnapshotSource differential suite: the three ways to hold one snapshot
// — encoded in memory (FromSnapshotData), a v2 file read into an owned
// buffer (kHeap) and the same file mapped (kMmap) — must be
// indistinguishable to clients: every query kind, every graph in the zoo,
// every thread count in {1, 2, 4, 8}, compared response by response AND
// on the serialized protocol bytes. Suites are named MmapSource* so the
// CI TSan job picks them up.
#include "nucleus/store/snapshot_source.h"

#include <cstdio>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::GraphZoo;
using testing_util::TempPath;

SnapshotData BuildSnapshot(const Graph& g, Family family) {
  DecomposeOptions options;
  options.family = family;
  options.algorithm = Algorithm::kFnd;
  const DecompositionResult result = Decompose(g, options);
  return MakeSnapshot(g, options, result, /*with_index=*/true);
}

/// Every query kind over the whole id space, including out-of-range
/// probes — the error strings must match across sources too.
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
  workload.push_back({QueryEngine::QueryKind::kLambda, num_cliques, 0});
  workload.push_back({QueryEngine::QueryKind::kMembers, -1, 0});
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

/// The three holdings of `snapshot`, in the order the tests name them.
struct Holdings {
  std::shared_ptr<const SnapshotSource> encoded;
  std::shared_ptr<const SnapshotSource> owned;
  std::shared_ptr<const SnapshotSource> mapped;
};

Holdings HoldThreeWays(const SnapshotData& snapshot, const std::string& path) {
  EXPECT_TRUE(SaveSnapshotV2(snapshot, path).ok());
  Holdings h;
  h.encoded = SnapshotSource::FromSnapshotData(snapshot);
  auto owned = OpenSnapshotSource(path, SnapshotMemoryMode::kHeap);
  auto mapped = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
  EXPECT_TRUE(owned.ok()) << owned.status().ToString();
  EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
  if (owned.ok()) h.owned = std::move(*owned);
  if (mapped.ok()) h.mapped = std::move(*mapped);
  return h;
}

template <typename T>
std::vector<T> Copy(std::span<const T> span) {
  return {span.begin(), span.end()};
}

/// Every section of `a` and `b` holds the same values.
void ExpectSameSections(const SnapshotSource& a, const SnapshotSource& b) {
  EXPECT_EQ(Copy(a.CliqueLambdas()), Copy(b.CliqueLambdas()));
  EXPECT_EQ(Copy(a.NodeLambdas()), Copy(b.NodeLambdas()));
  EXPECT_EQ(Copy(a.NodeParents()), Copy(b.NodeParents()));
  EXPECT_EQ(Copy(a.NodeOfCliques()), Copy(b.NodeOfCliques()));
  EXPECT_EQ(Copy(a.Depths()), Copy(b.Depths()));
  EXPECT_EQ(Copy(a.UpTable()), Copy(b.UpTable()));
  EXPECT_EQ(a.IndexLevels(), b.IndexLevels());
  EXPECT_EQ(Copy(a.DensityRanking()), Copy(b.DensityRanking()));
  for (std::int32_t node = 0; node < a.NumNodes(); ++node) {
    EXPECT_EQ(a.SubtreeSize(node), b.SubtreeSize(node)) << "node " << node;
    EXPECT_EQ(a.MaterializeMembers(node), b.MaterializeMembers(node))
        << "node " << node;
  }
}

class MmapSourceZooTest
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(MmapSourceZooTest, HeapAndMmapAnswerByteIdenticallyAtAllThreadCounts) {
  const Graph g = GetParam().make();
  const SnapshotData snapshot = BuildSnapshot(g, Family::kTruss23);
  const std::string path = TempPath("diff_" + GetParam().name + ".nucsnap");
  const Holdings h = HoldThreeWays(snapshot, path);
  ASSERT_NE(h.owned, nullptr);
  ASSERT_NE(h.mapped, nullptr);
  EXPECT_EQ(h.encoded->MappedBytes(), 0);
  EXPECT_EQ(h.owned->MappedBytes(), 0);
  EXPECT_GT(h.mapped->MappedBytes(), 0);
  // The in-memory encoding IS the file: same size, same sections.
  EXPECT_EQ(h.encoded->HeapBytes(), h.owned->HeapBytes());
  ASSERT_TRUE(h.mapped->Ensure(kNeedAll).ok());
  ExpectSameSections(*h.encoded, *h.mapped);

  const std::unique_ptr<QueryEngine> engines[] = {
      QueryEngine::FromSource(h.encoded), QueryEngine::FromSource(h.owned),
      QueryEngine::FromSource(h.mapped)};
  const QueryEngine& reference = *engines[0];
  for (const auto& engine : engines) {
    EXPECT_EQ(engine->NumCliques(), reference.NumCliques());
    EXPECT_EQ(engine->NumNodes(), reference.NumNodes());
    EXPECT_EQ(engine->NumNuclei(), reference.NumNuclei());
  }

  const auto workload =
      FullWorkload(reference.NumCliques(), reference.NumNodes(),
                   reference.meta().max_lambda);
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const auto expected = reference.RunBatch(workload, pool);
    for (std::size_t e = 1; e < std::size(engines); ++e) {
      SCOPED_TRACE(e == 1 ? "owned" : "mapped");
      const auto responses = engines[e]->RunBatch(workload, pool);
      ASSERT_EQ(responses.size(), expected.size());
      for (std::size_t i = 0; i < workload.size(); ++i) {
        ExpectResponsesEqual(expected[i], responses[i]);
      }
      // The serialized protocol answers — what a client actually reads
      // off the wire — are byte-identical too.
      for (std::size_t i = 0; i < workload.size(); i += 7) {
        EXPECT_EQ(ResponseToJson(workload[i], expected[i]),
                  ResponseToJson(workload[i], responses[i]));
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Zoo, MmapSourceZooTest,
                         ::testing::ValuesIn(GraphZoo()),
                         [](const auto& info) { return info.param.name; });

TEST(MmapSource, ZeroCopyFootprintIsSmallerThanHeap) {
  // Large enough that the owned image dwarfs the mapped source's fixed
  // bookkeeping.
  const Graph g = ErdosRenyiGnp(400, 0.05, 11);
  const SnapshotData snapshot = BuildSnapshot(g, Family::kCore12);
  const std::string path = TempPath("foot.nucsnap");
  const Holdings h = HoldThreeWays(snapshot, path);
  ASSERT_NE(h.owned, nullptr);
  ASSERT_NE(h.mapped, nullptr);

  // The mapping owns no section bytes: its heap charge must be a small
  // fraction of the owned copy's.
  EXPECT_GT(h.owned->HeapBytes(), h.mapped->MappedBytes());
  EXPECT_LT(h.mapped->HeapBytes(), h.owned->HeapBytes() / 4);
  std::remove(path.c_str());
}

TEST(MmapSource, MetaAndViewsMatchHeapSource) {
  const Graph g = testing_util::PaperFigure2Graph();
  const SnapshotData snapshot = BuildSnapshot(g, Family::kCore12);
  const std::string path = TempPath("meta.nucsnap");
  const Holdings h = HoldThreeWays(snapshot, path);
  ASSERT_NE(h.owned, nullptr);
  ASSERT_NE(h.mapped, nullptr);
  ASSERT_TRUE(h.mapped->Ensure(kNeedAll).ok());

  for (const SnapshotSource* source : {h.owned.get(), h.mapped.get()}) {
    const SnapshotMeta& a = h.encoded->meta();
    const SnapshotMeta& b = source->meta();
    EXPECT_EQ(a.family, b.family);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.num_vertices, b.num_vertices);
    EXPECT_EQ(a.num_edges, b.num_edges);
    EXPECT_EQ(a.graph_fingerprint, b.graph_fingerprint);
    EXPECT_EQ(a.num_cliques, b.num_cliques);
    EXPECT_EQ(a.max_lambda, b.max_lambda);
    ExpectSameSections(*h.encoded, *source);
  }
  // Materializing the owned source gives back the snapshot it encodes.
  const SnapshotData round_trip = h.owned->ToSnapshotData();
  EXPECT_EQ(round_trip.peel.lambda, snapshot.peel.lambda);
  EXPECT_EQ(round_trip.index_tables.up, snapshot.index_tables.up);
  EXPECT_EQ(round_trip.hierarchy.NodeOfCliqueArray(),
            snapshot.hierarchy.NodeOfCliqueArray());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nucleus
