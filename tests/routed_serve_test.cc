// Routed multi-tenant serving: grammar coverage, admin verbs end to end,
// and the isolation contract — a tenant's slice of a routed transcript
// (updates included) is byte-identical to replaying its lines against a
// dedicated single-tenant session, and updates to one tenant never
// perturb another tenant's epoch or cache.
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/graph/edge_list_io.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::TempPath;

/// Two K5s joined by one bridge edge 4-5: removing the bridge is a real
/// (applied) update with a visible hierarchy change.
Graph TwoK5Bridge() {
  GraphBuilder b(10);
  for (VertexId u = 0; u < 5; ++u)
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  for (VertexId u = 5; u < 10; ++u)
    for (VertexId v = u + 1; v < 10; ++v) b.AddEdge(u, v);
  b.AddEdge(4, 5);
  return b.Build();
}

/// Snapshot + edge-list files for one live (1,2)/kDft tenant.
struct LiveTenantFiles {
  TenantSpec spec;
  Graph graph;
  LiveTenantFiles(const std::string& name, Graph g) : graph(std::move(g)) {
    DecomposeOptions options;
    options.family = Family::kCore12;
    options.algorithm = Algorithm::kDft;
    DecompositionResult result = Decompose(graph, options);
    spec.name = name;
    spec.snapshot_path = TempPath("routed_" + name + ".nucsnap");
    EXPECT_TRUE(SaveSnapshotV2(MakeSnapshot(graph, options, std::move(result),
                                          /*with_index=*/true),
                             spec.snapshot_path)
                    .ok());
    spec.graph_path = TempPath("routed_" + name + "_edges.txt");
    EXPECT_TRUE(WriteEdgeList(graph, spec.graph_path).ok());
  }

  /// A dedicated single-tenant session over the same backing files.
  std::string ServeAlone(const std::string& script,
                         const ServeOptions& options) const {
    StatusOr<SnapshotData> snapshot = LoadSnapshot(spec.snapshot_path);
    EXPECT_TRUE(snapshot.ok());
    StatusOr<std::unique_ptr<LiveUpdater>> updater =
        LiveUpdater::Create(graph, *snapshot);
    EXPECT_TRUE(updater.ok());
    const std::unique_ptr<QueryEngine> engine =
        QueryEngine::FromSnapshotData(std::move(*snapshot));
    std::istringstream in(script);
    std::ostringstream out;
    ServeRequests(*engine, updater->get(), in, out, options);
    return out.str();
  }
};

TEST(RoutedServe, GrammarAcceptsAndRejects) {
  const auto routed = ParseRoutedServeLine("web:nucleus 3 2");
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->tenant, "web");
  EXPECT_EQ(routed->admin, RoutedServeLine::Admin::kNone);
  EXPECT_EQ(routed->request.query.kind, QueryEngine::QueryKind::kNucleus);

  const auto unrouted = ParseRoutedServeLine("lambda 3");
  ASSERT_TRUE(unrouted.ok());
  EXPECT_TRUE(unrouted->tenant.empty());

  const auto update = ParseRoutedServeLine("web:update 1 2 +");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->tenant, "web");
  EXPECT_TRUE(update->request.is_update);

  const auto attach =
      ParseRoutedServeLine("attach web snapshot=a.nucsnap graph=a.txt");
  ASSERT_TRUE(attach.ok());
  EXPECT_EQ(attach->admin, RoutedServeLine::Admin::kAttach);
  ASSERT_EQ(attach->admin_args.size(), 3u);
  EXPECT_EQ(attach->admin_args[0], "web");

  const auto detach = ParseRoutedServeLine("detach web");
  ASSERT_TRUE(detach.ok());
  EXPECT_EQ(detach->admin, RoutedServeLine::Admin::kDetach);
  const auto tenants = ParseRoutedServeLine("tenants");
  ASSERT_TRUE(tenants.ok());
  EXPECT_EQ(tenants->admin, RoutedServeLine::Admin::kTenants);

  EXPECT_FALSE(ParseRoutedServeLine(":lambda 1").ok());  // empty tenant
  EXPECT_FALSE(ParseRoutedServeLine("web:").ok());       // empty verb
  EXPECT_FALSE(ParseRoutedServeLine("bad name!:lambda 1").ok());
  EXPECT_FALSE(ParseRoutedServeLine("web:frobnicate 1").ok());
  EXPECT_FALSE(ParseRoutedServeLine("web:lambda").ok());  // arity
  EXPECT_FALSE(ParseRoutedServeLine("detach").ok());      // arity
  EXPECT_FALSE(ParseRoutedServeLine("tenants now").ok()); // arity
  // A second colon lands in the verb, not the tenant.
  EXPECT_FALSE(ParseRoutedServeLine("a:b:lambda 1").ok());
  // 65 characters: one past the tenant-name cap.
  EXPECT_FALSE(
      ParseRoutedServeLine(std::string(65, 'a') + ":lambda 1").ok());
  EXPECT_TRUE(
      ParseRoutedServeLine(std::string(64, 'a') + ":lambda 1").ok());
}

TEST(RoutedServe, SingleTenantSessionsRejectRoutingAndAdmin) {
  const Graph g = testing_util::PaperFigure2Graph();
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kFnd;
  const std::unique_ptr<QueryEngine> engine = QueryEngine::FromSnapshotData(
      MakeSnapshot(g, options, Decompose(g, options), true));

  std::istringstream in(
      "lambda 0\n"
      "web:lambda 0\n"
      "tenants\n"
      "attach web snapshot=x.nucsnap\n"
      "lambda 0\n");
  std::ostringstream out;
  const ServeStats stats = ServeRequests(*engine, in, out);
  EXPECT_EQ(stats.requests, 5);
  EXPECT_EQ(stats.errors, 3);
  EXPECT_EQ(stats.admin, 0);

  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[1].find("--registry"), std::string::npos);
  EXPECT_NE(lines[2].find("--registry"), std::string::npos);
  EXPECT_NE(lines[3].find("--registry"), std::string::npos);
  EXPECT_EQ(lines[0], lines[4]);  // the session keeps serving
}

// The tentpole acceptance property: an interleaved two-tenant session
// with live updates, sliced per tenant, must be byte-identical to each
// tenant's dedicated single-tenant replay — at every thread count and
// batch size, and updates to one tenant must not advance the other's
// epoch.
TEST(RoutedServe, CrossTenantLiveUpdateEquivalenceAndIsolation) {
  const LiveTenantFiles a("a", testing_util::PaperFigure2Graph());
  const LiveTenantFiles b("b", TwoK5Bridge());

  // One logical session per tenant, interleaved line by line. Updates hit
  // both tenants at different points; a's bridge edge comes back later.
  const std::vector<std::pair<std::string, std::string>> interleaved = {
      {"a", "lambda 0"},      {"b", "lambda 4"},
      {"a", "common 0 5"},    {"b", "update 4 5 -"},
      {"a", "update 3 8 -"},  {"b", "lambda 4"},
      {"a", "lambda 8"},      {"b", "common 4 5"},
      {"a", "update 9 3 -"},  {"b", "top 2"},
      {"a", "top 3"},         {"b", "update 4 5 -"},  // no-op: already gone
      {"a", "update 3 8 +"},  {"b", "members 0"},
      {"a", "lambda 8"},      {"b", "lambda 5"},
      {"a", "members 0"},     {"b", "nucleus 0 3"},
  };

  std::string routed_script;
  for (const auto& [tenant, line] : interleaved) {
    routed_script += tenant + ":" + line + "\n";
  }

  std::string reference;
  for (const int threads : {1, 2, 4, 8}) {
    for (const std::int64_t batch : {1, 4, 256}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      ServeOptions options;
      options.parallel.num_threads = threads;
      options.batch_size = batch;

      SnapshotRegistry registry;
      ASSERT_TRUE(registry.Attach(a.spec).ok());
      ASSERT_TRUE(registry.Attach(b.spec).ok());
      std::istringstream in(routed_script);
      std::ostringstream out;
      const ServeStats stats =
          ServeRegistryRequests(registry, in, out, options);
      EXPECT_EQ(stats.errors, 0) << out.str();
      EXPECT_EQ(stats.updates, 5);

      if (reference.empty()) {
        reference = out.str();
      } else {
        EXPECT_EQ(out.str(), reference);
        continue;
      }

      // Slice the routed transcript per tenant (responses map 1:1 to
      // request lines and carry no tenant field by design) and diff each
      // slice against a dedicated single-tenant replay.
      std::vector<std::string> responses;
      std::istringstream response_stream(out.str());
      for (std::string line; std::getline(response_stream, line);) {
        responses.push_back(line);
      }
      ASSERT_EQ(responses.size(), interleaved.size());
      std::string a_slice, b_slice, a_script, b_script;
      for (std::size_t i = 0; i < interleaved.size(); ++i) {
        if (interleaved[i].first == "a") {
          a_slice += responses[i] + "\n";
          a_script += interleaved[i].second + "\n";
        } else {
          b_slice += responses[i] + "\n";
          b_script += interleaved[i].second + "\n";
        }
      }
      EXPECT_EQ(a_slice, a.ServeAlone(a_script, options));
      EXPECT_EQ(b_slice, b.ServeAlone(b_script, options));

      // Isolation: each tenant saw exactly its own APPLIED updates.
      // a applied 3 (two removals + one re-insert), b applied 1 (the
      // second bridge removal was a no-op and must not bump the epoch).
      StatusOr<SnapshotRegistry::Lease> a_lease = registry.Acquire("a");
      StatusOr<SnapshotRegistry::Lease> b_lease = registry.Acquire("b");
      ASSERT_TRUE(a_lease.ok());
      ASSERT_TRUE(b_lease.ok());
      EXPECT_EQ(a_lease->engine().UpdateEpoch(), 3);
      EXPECT_EQ(b_lease->engine().UpdateEpoch(), 1);
      EXPECT_EQ(registry.Stats("a")->updates, 3);
      EXPECT_EQ(registry.Stats("b")->updates, 1);
    }
  }
}

TEST(RoutedServe, AdminVerbsEndToEnd) {
  const LiveTenantFiles a("adm", testing_util::PaperFigure2Graph());
  SnapshotRegistry registry;

  const std::string script =
      "tenants\n"
      "attach adm snapshot=" + a.spec.snapshot_path +
      " graph=" + a.spec.graph_path + "\n"
      "adm:lambda 0\n"
      "tenants\n"
      "attach adm snapshot=" + a.spec.snapshot_path + "\n"  // duplicate
      "detach adm\n"
      "adm:lambda 0\n"
      "detach adm\n";
  std::istringstream in(script);
  std::ostringstream out;
  const ServeStats stats = ServeRegistryRequests(registry, in, out);
  EXPECT_EQ(stats.admin, 4);   // tenants, attach, tenants, detach
  EXPECT_EQ(stats.errors, 3);  // duplicate attach, post-detach query+detach

  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 8u);
  EXPECT_EQ(lines[0], "{\"query\": \"tenants\", \"count\": 0, \"tenants\": []}");
  EXPECT_NE(lines[1].find("\"query\": \"attach\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"lambda\": 3"), std::string::npos);
  EXPECT_NE(lines[3].find("\"name\": \"adm\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"live\": true"), std::string::npos);
  EXPECT_NE(lines[4].find("already attached"), std::string::npos);
  EXPECT_NE(lines[5].find("\"query\": \"detach\""), std::string::npos);
  EXPECT_NE(lines[6].find("unknown tenant"), std::string::npos);
  EXPECT_NE(lines[7].find("unknown tenant"), std::string::npos);
}

}  // namespace
}  // namespace nucleus
