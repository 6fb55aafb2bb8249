#include "nucleus/serve/request_loop.h"

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "test_util.h"

namespace nucleus {
namespace {

std::unique_ptr<QueryEngine> MakeFigure2Engine() {
  const Graph g = testing_util::PaperFigure2Graph();
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kFnd;
  const DecompositionResult result = Decompose(g, options);
  return QueryEngine::FromSnapshotData(MakeSnapshot(g, options, result, true));
}

TEST(ParseRequestLine, AcceptsEveryVerb) {
  EXPECT_TRUE(ParseRequestLine("lambda 3").ok());
  EXPECT_TRUE(ParseRequestLine("nucleus 3 2").ok());
  EXPECT_TRUE(ParseRequestLine("common 0 7").ok());
  EXPECT_TRUE(ParseRequestLine("level 0 7").ok());
  EXPECT_TRUE(ParseRequestLine("top 5").ok());
  EXPECT_TRUE(ParseRequestLine("members 1").ok());
  const auto q = ParseRequestLine("nucleus 3 2");
  EXPECT_EQ(q->kind, QueryEngine::QueryKind::kNucleus);
  EXPECT_EQ(q->a, 3);
  EXPECT_EQ(q->b, 2);
}

TEST(ParseRequestLine, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("frobnicate 1").ok());
  EXPECT_FALSE(ParseRequestLine("lambda").ok());          // missing arg
  EXPECT_FALSE(ParseRequestLine("lambda 1 2").ok());      // extra arg
  EXPECT_FALSE(ParseRequestLine("common 1").ok());        // arity
  EXPECT_FALSE(ParseRequestLine("lambda 3x").ok());       // trailing junk
  EXPECT_FALSE(ParseRequestLine("nucleus 1 two").ok());   // non-numeric
}

TEST(ParseRequestLine, RejectsExplicitSignOnTheProtocolSurface) {
  // strtoll alone would accept "+7"; the whole-token contract of
  // StrictParseInt64 must hold on the serve surface too (whitespace
  // inside a token cannot occur here — the tokenizer strips it — but an
  // explicit sign can).
  EXPECT_FALSE(ParseRequestLine("lambda +7").ok());
  EXPECT_FALSE(ParseRequestLine("nucleus 1 +2").ok());
  EXPECT_FALSE(ParseRequestLine("members +0").ok());
  EXPECT_TRUE(ParseRequestLine("lambda 7").ok());
}

TEST(ParseServeLine, ParsesAndValidatesUpdateVerb) {
  const auto insert = ParseServeLine("update 3 9 +");
  ASSERT_TRUE(insert.ok());
  EXPECT_TRUE(insert->is_update);
  EXPECT_EQ(insert->edit.u, 3);
  EXPECT_EQ(insert->edit.v, 9);
  EXPECT_EQ(insert->edit.op, EdgeEditOp::kInsert);
  const auto remove = ParseServeLine("update 9 3 -");
  ASSERT_TRUE(remove.ok());
  EXPECT_EQ(remove->edit.op, EdgeEditOp::kRemove);

  EXPECT_FALSE(ParseServeLine("update 3 9").ok());       // missing op
  EXPECT_FALSE(ParseServeLine("update 3 9 *").ok());     // bad op
  EXPECT_FALSE(ParseServeLine("update 3 9 + 1").ok());   // extra arg
  EXPECT_FALSE(ParseServeLine("update 3x 9 +").ok());    // junk id
  EXPECT_FALSE(ParseServeLine("update +3 9 +").ok());    // signed id
  EXPECT_FALSE(ParseServeLine("update -1 9 +").ok());    // negative id
  // The query-only parser rejects the verb outright.
  EXPECT_FALSE(ParseRequestLine("update 3 9 +").ok());
  // Non-update verbs still parse through ParseServeLine.
  const auto query = ParseServeLine("common 0 7");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(query->is_update);
}

TEST(ServeRequests, UpdateVerbWithoutUpdaterIsAnInlineError) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  std::istringstream in("lambda 0\nupdate 0 5 +\nlambda 0\n");
  std::ostringstream out;
  const ServeStats stats = ServeRequests(*engine, nullptr, in, out);
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.updates, 0);
  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find("\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("not enabled"), std::string::npos);
  EXPECT_NE(lines[1].find("\"line\": 2"), std::string::npos);
  EXPECT_EQ(lines[0], lines[2]);  // session keeps serving, state unchanged
}

TEST(ServeRequests, AnswersInOrderWithErrorsInline) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  std::istringstream in(
      "# figure 2 session\n"
      "\n"
      "lambda 0\n"
      "wat 1\n"
      "common 0 5\n"
      "level 0 5\n"
      "top 2\n"
      "members 0\n");
  std::ostringstream out;
  const ServeStats stats = ServeRequests(*engine, in, out);
  EXPECT_EQ(stats.requests, 6);
  EXPECT_EQ(stats.errors, 1);

  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u);
  // Vertex 0 is in a K4: lambda 3. Vertices 0 and 5 are in different K4s:
  // common nucleus is the 2-core.
  EXPECT_EQ(lines[0], "{\"query\": \"lambda\", \"u\": 0, \"lambda\": 3}");
  EXPECT_NE(lines[1].find("\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"line\": 4"), std::string::npos);
  EXPECT_NE(lines[2].find("\"query\": \"common\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"found\": true"), std::string::npos);
  EXPECT_NE(lines[2].find("\"k\": 2"), std::string::npos);
  EXPECT_EQ(lines[3],
            "{\"query\": \"level\", \"u\": 0, \"v\": 5, \"level\": 2}");
  EXPECT_NE(lines[4].find("\"query\": \"top\", \"count\": 2"),
            std::string::npos);
  // members of the root subtree = all 10 vertices.
  EXPECT_NE(lines[5].find("\"members\": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]"),
            std::string::npos);
}

TEST(ServeRequests, InvalidQueryArgumentsBecomeErrorObjects) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  std::istringstream in("lambda 99999\nmembers -2\n");
  std::ostringstream out;
  const ServeStats stats = ServeRequests(*engine, in, out);
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.errors, 2);
  std::istringstream result(out.str());
  std::string line;
  while (std::getline(result, line)) {
    EXPECT_NE(line.find("\"error\""), std::string::npos) << line;
  }
}

/// JSON object keys in document order: every quoted string immediately
/// followed by a colon. String VALUES are never followed by ':' in this
/// protocol, so the scan yields exactly the keys.
std::vector<std::string> JsonKeysInOrder(const std::string& json) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] != '"') continue;
    const std::size_t close = json.find('"', i + 1);
    if (close == std::string::npos) break;
    if (close + 1 < json.size() && json[close + 1] == ':') {
      keys.push_back(json.substr(i + 1, close - i - 1));
    }
    i = close;
  }
  return keys;
}

// The `stats` verb's schema is pinned: dashboards and the smoke tests
// parse these exact field names in this exact order. The metrics/tracing
// subsystem must surface new telemetry through the `metrics` verb (or
// the exposition endpoint), never by growing this object.
TEST(ServeRequests, StatsVerbSchemaIsPinned) {
  const Graph g = testing_util::PaperFigure2Graph();
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kDft;
  DecompositionResult result = Decompose(g, options);
  TenantSpec spec;
  spec.name = "pinned";
  spec.snapshot_path = testing_util::TempPath("stats_schema.nucsnap");
  ASSERT_TRUE(SaveSnapshotV2(MakeSnapshot(g, options, std::move(result),
                                        /*with_index=*/true),
                           spec.snapshot_path)
                  .ok());
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Attach(spec).ok());

  std::istringstream in("pinned:lambda 0\nstats\n");
  std::ostringstream out;
  const ServeStats stats = ServeRegistryRequests(registry, in, out);
  EXPECT_EQ(stats.admin, 1);
  std::vector<std::string> lines;
  std::istringstream response(out.str());
  for (std::string line; std::getline(response, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  const std::string& stats_line = lines[1];

  const std::vector<std::string> expected = {
      // clang-format off
      "query", "tenants",
      // per-tenant object
      "name", "resident", "live", "dirty", "loads", "evictions", "hits",
      "updates", "pins", "resident_bytes", "heap_bytes", "mapped_bytes",
      "cache", "hits", "misses", "evictions", "entries", "bytes",
      // registry rollup
      "registry", "tenants", "resident_bytes", "mapped_bytes",
      "budget_bytes", "detaches", "detached_cache", "hits", "misses",
      "evictions",
      // clang-format on
  };
  EXPECT_EQ(JsonKeysInOrder(stats_line), expected) << stats_line;

  // Value types: strings where strings belong, booleans for the flags,
  // bare integers everywhere else (no quotes, no decimal points).
  EXPECT_NE(stats_line.find("{\"query\": \"stats\", \"tenants\": [{"),
            std::string::npos);
  EXPECT_NE(stats_line.find("\"name\": \"pinned\", \"resident\": true, "
                            "\"live\": false, \"dirty\": false, "
                            "\"loads\": 1"),
            std::string::npos);
  for (const char* int_key :
       {"\"evictions\": ", "\"hits\": ", "\"updates\": ", "\"pins\": ",
        "\"resident_bytes\": ", "\"heap_bytes\": ", "\"mapped_bytes\": ",
        "\"entries\": ", "\"bytes\": ", "\"budget_bytes\": ",
        "\"detaches\": "}) {
    const std::size_t at = stats_line.find(int_key);
    ASSERT_NE(at, std::string::npos) << int_key;
    const char first = stats_line[at + std::strlen(int_key)];
    EXPECT_TRUE(first >= '0' && first <= '9') << int_key;
  }
}

TEST(ServeRequests, MetricsVerbWorksInEverySessionShape) {
  // `metrics` is session-shape-independent (unlike stats/attach/detach/
  // tenants): a single-engine session answers it too, and `metrics text`
  // embeds the Prometheus exposition as one JSON string.
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  std::istringstream in("metrics\nmetrics text\nmetrics json\n");
  std::ostringstream out;
  const ServeStats stats = ServeRequests(*engine, in, out);
  EXPECT_EQ(stats.admin, 2);
  EXPECT_EQ(stats.errors, 1);  // 'metrics json' is a grammar error
  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"query\": \"metrics\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"counters\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"histograms\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"format\": \"text\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"exposition\": \""), std::string::npos);
  EXPECT_NE(lines[2].find("\"error\""), std::string::npos);
  EXPECT_NE(lines[2].find("metrics [text]"), std::string::npos);
}

TEST(ServeRequests, OutputIsIdenticalAcrossThreadCountsAndBatchSizes) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  // A workload long enough to span several batches.
  std::string script;
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      script += "common " + std::to_string(i) + " " + std::to_string(j) +
                "\n";
      script += "nucleus " + std::to_string(i) + " 2\n";
    }
    script += "top 3\nmembers 1\nlambda " + std::to_string(i) + "\n";
  }

  std::string reference;
  for (int threads : {1, 2, 4, 8}) {
    for (std::int64_t batch : {1, 7, 256}) {
      ServeOptions options;
      options.parallel.num_threads = threads;
      options.batch_size = batch;
      std::istringstream in(script);
      std::ostringstream out;
      const ServeStats stats = ServeRequests(*engine, in, out, options);
      EXPECT_EQ(stats.requests, 230);
      EXPECT_EQ(stats.errors, 0);
      if (reference.empty()) {
        reference = out.str();
      } else {
        EXPECT_EQ(out.str(), reference)
            << "threads=" << threads << " batch=" << batch;
      }
    }
  }
}

}  // namespace
}  // namespace nucleus
