#include "nucleus/cli/cli.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "nucleus/graph/binary_io.h"
#include "nucleus/graph/edge_list_io.h"
#include "nucleus/graph/generators.h"
#include "nucleus/store/snapshot_v2.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::TempPath;

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunArgs(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = ::nucleus::RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string WriteTestGraph() {
  const std::string path = TempPath("cli_graph.txt");
  const Graph g = Caveman(3, 6, 3, 5);
  EXPECT_TRUE(WriteEdgeList(g, path).ok());
  return path;
}

TEST(Cli, NoCommandFails) {
  const CliResult r = RunArgs({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("missing command"), std::string::npos);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const CliResult r = RunArgs({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, FlagWithoutValueFails) {
  const CliResult r = RunArgs({"stats", "--input"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("requires a value"), std::string::npos);
}

TEST(Cli, StatsOnGeneratedGraph) {
  const std::string path = WriteTestGraph();
  const CliResult r = RunArgs({"stats", "--input", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("vertices: 18"), std::string::npos);
  EXPECT_NE(r.out.find("degeneracy: 5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, StatsMissingFileFails) {
  const CliResult r = RunArgs({"stats", "--input", "/no/such/file"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("NOT_FOUND"), std::string::npos);
}

TEST(Cli, DecomposeDefaultCoreFnd) {
  const std::string path = WriteTestGraph();
  const CliResult r = RunArgs({"decompose", "--input", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("(1,2) k-core"), std::string::npos);
  EXPECT_NE(r.out.find("algorithm: FND"), std::string::npos);
  EXPECT_NE(r.out.find("max lambda: 5"), std::string::npos);
  // The edge-list read time gets its own line, after "graph:".
  EXPECT_TRUE(std::regex_search(
      r.out, std::regex("graph: [^\n]*\nload: [0-9.e+-]+s\n")))
      << r.out;
  // The FromSkeleton contraction is timed next to, not inside, the total.
  EXPECT_TRUE(std::regex_search(
      r.out, std::regex("\ntime: [^\n]*\\), tree [0-9.e+-]+s\n")))
      << r.out;
  std::remove(path.c_str());
}

TEST(Cli, DecomposeTrussWritesArtifacts) {
  const std::string path = WriteTestGraph();
  const std::string json = TempPath("cli_h.json");
  const std::string dot = TempPath("cli_h.dot");
  const std::string lambda = TempPath("cli_lambda.txt");
  const CliResult r =
      RunArgs({"decompose", "--input", path, "--family", "truss", "--algorithm",
           "dft", "--out-json", json, "--out-dot", dot, "--lambda", lambda});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream json_in(json);
  EXPECT_TRUE(json_in.good());
  std::ifstream dot_in(dot);
  EXPECT_TRUE(dot_in.good());
  std::ifstream lambda_in(lambda);
  EXPECT_TRUE(lambda_in.good());
  // Lambda file: one "<edge id> <lambda>" line per edge.
  const auto reread = ReadEdgeList(path);
  ASSERT_TRUE(reread.ok());
  std::string line;
  std::int64_t lines = 0;
  while (std::getline(lambda_in, line)) ++lines;
  EXPECT_EQ(lines, reread->NumEdges());
  for (const auto& p : {json, dot, lambda, path}) std::remove(p.c_str());
}

TEST(Cli, DecomposeRejectsBadFamily) {
  const std::string path = WriteTestGraph();
  const CliResult r =
      RunArgs({"decompose", "--input", path, "--family", "pentagon"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown family"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, DecomposeRejectsLcpsOnTruss) {
  const std::string path = WriteTestGraph();
  const CliResult r = RunArgs({"decompose", "--input", path, "--family", "truss",
                           "--algorithm", "lcps"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("core only"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, DecomposeRejectsNaive) {
  const std::string path = WriteTestGraph();
  const CliResult r =
      RunArgs({"decompose", "--input", path, "--algorithm", "naive"});
  EXPECT_EQ(r.code, 2);
  std::remove(path.c_str());
}

TEST(Cli, GenerateRoundTrips) {
  const std::string path = TempPath("cli_generated.txt");
  const CliResult r = RunArgs({"generate", "--type", "er", "--out", path, "--n",
                           "100", "--param", "0.05", "--seed", "7"});
  EXPECT_EQ(r.code, 0) << r.err;
  const auto g = ReadEdgeList(path);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g->NumEdges(), 100);
  std::remove(path.c_str());
}

TEST(Cli, GenerateAllTypes) {
  for (const std::string type :
       {"er", "ba", "rmat", "ws", "planted", "caveman"}) {
    const std::string path = TempPath("cli_gen_" + type + ".txt");
    const CliResult r =
        RunArgs({"generate", "--type", type, "--out", path, "--n", "64"});
    EXPECT_EQ(r.code, 0) << type << ": " << r.err;
    const auto g = ReadEdgeList(path);
    ASSERT_TRUE(g.ok()) << type;
    EXPECT_GT(g->NumEdges(), 0) << type;
    std::remove(path.c_str());
  }
}

TEST(Cli, GenerateUnknownTypeFails) {
  const CliResult r =
      RunArgs({"generate", "--type", "hypercube", "--out", TempPath("x.txt")});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, GenerateRequiresTypeAndOut) {
  EXPECT_EQ(RunArgs({"generate", "--type", "er"}).code, 2);
  EXPECT_EQ(RunArgs({"generate", "--out", TempPath("y.txt")}).code, 2);
}

TEST(Cli, ConvertRoundTripsThroughBinary) {
  const std::string edges_path = WriteTestGraph();
  const std::string bin_path = TempPath("cli_graph.nucgraph");
  const std::string back_path = TempPath("cli_graph_back.txt");

  CliResult r = RunArgs({"convert", "--input", edges_path, "--out", bin_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote"), std::string::npos);

  r = RunArgs({"convert", "--input", bin_path, "--out", back_path});
  EXPECT_EQ(r.code, 0) << r.err;

  const auto original = ReadEdgeList(edges_path);
  const auto round_tripped = ReadEdgeList(back_path);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(round_tripped.ok());
  EXPECT_EQ(original->NumVertices(), round_tripped->NumVertices());
  EXPECT_EQ(original->NumEdges(), round_tripped->NumEdges());
}

TEST(Cli, ConvertRequiresBothPaths) {
  EXPECT_EQ(RunArgs({"convert", "--input", "x"}).code, 2);
  EXPECT_EQ(RunArgs({"convert", "--out", "y"}).code, 2);
}

TEST(Cli, SemiExternalCoreAndTruss) {
  const std::string edges_path = WriteTestGraph();
  const std::string bin_path = TempPath("cli_sem.nucgraph");
  ASSERT_EQ(
      RunArgs({"convert", "--input", edges_path, "--out", bin_path}).code, 0);
  for (const std::string family : {"core", "truss"}) {
    const CliResult r = RunArgs({"semi-external", "--input", bin_path,
                                 "--family", family, "--temp",
                                 ::testing::TempDir()});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("max lambda"), std::string::npos) << family;
    EXPECT_NE(r.out.find("io:"), std::string::npos) << family;
  }
}

TEST(Cli, SemiExternalRejectsBadFamilyAndMissingFile) {
  EXPECT_EQ(RunArgs({"semi-external", "--input", "x.nucgraph", "--family",
                     "34"})
                .code,
            2);
  EXPECT_EQ(
      RunArgs({"semi-external", "--input", TempPath("nope.nucgraph")}).code,
      1);
}

TEST(Cli, SemiExternalRejectsCorruptAdjacency) {
  // Path(4) with vertex 1's list patched to [0, 0x7fff0000]: an id far
  // past |V| that the scan must reject instead of indexing with it.
  const std::string bin_path = TempPath("cli_corrupt.nucgraph");
  ASSERT_TRUE(WriteBinaryGraph(Path(4), bin_path).ok());
  testing_util::PatchBinaryAdjacency(bin_path, 4, 2, 0x7fff0000);
  for (const std::string family : {"core", "truss"}) {
    const CliResult r = RunArgs({"semi-external", "--input", bin_path,
                                 "--family", family, "--temp",
                                 ::testing::TempDir()});
    EXPECT_EQ(r.code, 1) << family;
    EXPECT_NE(r.err.find("error:"), std::string::npos) << family << r.err;
    EXPECT_NE(r.err.find("vertex 1"), std::string::npos) << family << r.err;
  }
}

TEST(Cli, QueryReportsCommonNucleus) {
  const std::string edges_path = WriteTestGraph();
  // Caveman(3, 6, ...): vertices 0 and 1 share a cave (dense), vertices 0
  // and 17 do not.
  CliResult r =
      RunArgs({"query", "--input", edges_path, "--u", "0", "--v", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("smallest common nucleus"), std::string::npos);

  r = RunArgs({"query", "--input", edges_path, "--u", "0", "--v", "0"});
  EXPECT_EQ(r.code, 0);
}

TEST(Cli, QueryValidatesArguments) {
  const std::string edges_path = WriteTestGraph();
  // --u alone is a lambda query now; out-of-range and garbage ids fail.
  EXPECT_EQ(RunArgs({"query", "--input", edges_path, "--u", "0"}).code, 0);
  EXPECT_EQ(RunArgs({"query", "--input", edges_path, "--u", "0", "--v",
                     "99999"})
                .code,
            2);
  EXPECT_EQ(RunArgs({"query", "--input", edges_path, "--u", "3x", "--v",
                     "1"})
                .code,
            2);
  EXPECT_EQ(RunArgs({"query", "--input", edges_path}).code, 2);
  // --v and --k are mutually exclusive, and both require --u.
  EXPECT_EQ(RunArgs({"query", "--input", edges_path, "--u", "0", "--v", "1",
                     "--k", "2"})
                .code,
            2);
  EXPECT_EQ(RunArgs({"query", "--input", edges_path, "--top", "3", "--v",
                     "1"})
                .code,
            2);
}

TEST(Cli, RejectsUnknownFlags) {
  const std::string edges_path = WriteTestGraph();
  const CliResult r =
      RunArgs({"decompose", "--input", edges_path, "--outjson", "x.json"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag '--outjson'"), std::string::npos);
  EXPECT_EQ(RunArgs({"stats", "--input", edges_path, "--family", "core"})
                .code,
            2);
  std::remove(edges_path.c_str());
}

TEST(Cli, RejectsLeadingWhitespaceAndPlusInNumericFlags) {
  const std::string edges_path = WriteTestGraph();
  // strtoll would skip leading whitespace and accept an explicit '+';
  // StrictParseInt64's whole-token contract must reject both on the flag
  // parser surface.
  EXPECT_EQ(
      RunArgs({"query", "--input", edges_path, "--u", " 42"}).code, 2);
  EXPECT_EQ(
      RunArgs({"query", "--input", edges_path, "--u", "\t7"}).code, 2);
  EXPECT_EQ(
      RunArgs({"query", "--input", edges_path, "--u", "+42"}).code, 2);
  EXPECT_EQ(
      RunArgs({"decompose", "--input", edges_path, "--threads", " 2"}).code,
      2);
  // Plain numbers still parse.
  EXPECT_EQ(RunArgs({"query", "--input", edges_path, "--u", "0"}).code, 0);
  std::remove(edges_path.c_str());
}

TEST(Cli, RejectsTrailingGarbageInNumericFlags) {
  const std::string edges_path = WriteTestGraph();
  EXPECT_EQ(
      RunArgs({"decompose", "--input", edges_path, "--threads", "2x"}).code,
      2);
  EXPECT_EQ(RunArgs({"generate", "--type", "er", "--out",
                     TempPath("z.txt"), "--n", "10q"})
                .code,
            2);
  EXPECT_EQ(RunArgs({"generate", "--type", "er", "--out",
                     TempPath("z.txt"), "--param", "0.1.2"})
                .code,
            2);
  std::remove(edges_path.c_str());
}

TEST(Cli, QueryByLevelAndTop) {
  const std::string edges_path = WriteTestGraph();
  CliResult r = RunArgs(
      {"query", "--input", edges_path, "--u", "0", "--k", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2-nucleus of 0"), std::string::npos);

  const std::string json = TempPath("cli_query.json");
  r = RunArgs({"query", "--input", edges_path, "--top", "3", "--out-json",
               json});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("densest nuclei"), std::string::npos);
  std::ifstream json_in(json);
  std::stringstream buffer;
  buffer << json_in.rdbuf();
  EXPECT_NE(buffer.str().find("\"query\": \"top\""), std::string::npos);
  std::remove(json.c_str());
  std::remove(edges_path.c_str());
}

TEST(Cli, DecomposeSnapshotThenQueryAndServe) {
  const std::string edges_path = WriteTestGraph();
  const std::string snapshot = TempPath("cli_snap.nucsnap");

  CliResult r = RunArgs({"decompose", "--input", edges_path, "--family",
                         "truss", "--out-snapshot", snapshot});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("with index tables"), std::string::npos);

  // Snapshot-backed query answers must match fresh-decompose answers.
  const std::string snap_json = TempPath("cli_snap_q.json");
  const std::string fresh_json = TempPath("cli_fresh_q.json");
  r = RunArgs({"query", "--snapshot", snapshot, "--u", "0", "--v", "1",
               "--out-json", snap_json});
  EXPECT_EQ(r.code, 0) << r.err;
  r = RunArgs({"query", "--input", edges_path, "--family", "truss", "--u",
               "0", "--v", "1", "--out-json", fresh_json});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream a(snap_json);
  std::ifstream b(fresh_json);
  std::stringstream sa;
  std::stringstream sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_NE(sa.str().find("\"query\": \"common\""), std::string::npos);

  // Serve a small scripted session from a file.
  const std::string queries = TempPath("cli_serve_q.txt");
  const std::string answers = TempPath("cli_serve_a.txt");
  {
    std::ofstream q(queries);
    q << "# comment and blank lines are skipped\n\n"
      << "lambda 0\nnucleus 0 2\ncommon 0 1\nlevel 0 1\ntop 2\n"
      << "members 1\nbogus 1\n";
  }
  r = RunArgs({"serve", "--snapshot", snapshot, "--queries", queries,
               "--out", answers, "--threads", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("served 7 requests (1 errors, 0 updates)"),
            std::string::npos);
  std::ifstream ans(answers);
  std::stringstream sc;
  sc << ans.rdbuf();
  EXPECT_NE(sc.str().find("\"query\": \"lambda\""), std::string::npos);
  EXPECT_NE(sc.str().find("\"query\": \"top\""), std::string::npos);
  EXPECT_NE(sc.str().find("\"error\""), std::string::npos);

  EXPECT_EQ(RunArgs({"serve", "--snapshot", TempPath("no.nucsnap")}).code,
            1);
  EXPECT_EQ(RunArgs({"serve", "--queries", queries}).code, 2);
  // Decompose-only flags are rejected with --snapshot, not ignored.
  EXPECT_EQ(RunArgs({"query", "--snapshot", snapshot, "--u", "0",
                     "--family", "truss"})
                .code,
            2);
  EXPECT_EQ(RunArgs({"query", "--snapshot", snapshot, "--u", "0",
                     "--threads", "2"})
                .code,
            2);

  for (const auto& p :
       {snapshot, snap_json, fresh_json, queries, answers, edges_path}) {
    std::remove(p.c_str());
  }
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Cli, SnapshotFormatV2MmapQueryAndServeMatchHeap) {
  // decompose writes one format (v2); both memory modes serve it.
  const std::string edges_path = WriteTestGraph();
  const std::string snap = TempPath("cli_fmt.nucsnap");

  CliResult r = RunArgs({"decompose", "--input", edges_path, "--family",
                         "truss", "--out-snapshot", snap});
  EXPECT_EQ(r.code, 0) << r.err;
  auto version = ReadSnapshotVersion(snap);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);

  // Owned (heap) and mapped (mmap) holdings of the same file answer
  // byte-identically.
  const std::string heap_json = TempPath("cli_fmt_heap.json");
  const std::string mmap_json = TempPath("cli_fmt_mmap.json");
  r = RunArgs({"query", "--snapshot", snap, "--u", "0", "--v", "1", "--top",
               "3", "--out-json", heap_json});
  EXPECT_EQ(r.code, 0) << r.err;
  r = RunArgs({"query", "--snapshot", snap, "--memory-mode", "mmap", "--u",
               "0", "--v", "1", "--top", "3", "--out-json", mmap_json});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(ReadWholeFile(heap_json), ReadWholeFile(mmap_json));

  // A whole serve session, transcript-compared across memory modes.
  const std::string queries = TempPath("cli_fmt_q.txt");
  {
    std::ofstream q(queries);
    q << "lambda 0\nnucleus 0 2\ncommon 0 1\ntop 2\nmembers 1\n";
  }
  const std::string heap_answers = TempPath("cli_fmt_heap_a.txt");
  const std::string mmap_answers = TempPath("cli_fmt_mmap_a.txt");
  r = RunArgs({"serve", "--snapshot", snap, "--queries", queries, "--out",
               heap_answers});
  EXPECT_EQ(r.code, 0) << r.err;
  r = RunArgs({"serve", "--snapshot", snap, "--memory-mode", "mmap",
               "--queries", queries, "--out", mmap_answers, "--threads",
               "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(ReadWholeFile(heap_answers), ReadWholeFile(mmap_answers));

  // Mode values are validated, mmap refuses the surfaces that must
  // materialize heap state, and the retired format flags are unknown.
  EXPECT_EQ(RunArgs({"query", "--snapshot", snap, "--memory-mode", "paged",
                     "--u", "0"})
                .code,
            2);
  r = RunArgs({"query", "--input", edges_path, "--memory-mode", "mmap",
               "--u", "0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("plain --snapshot only"), std::string::npos);
  for (const char* flag : {"--snapshot-format", "--snapshot-index"}) {
    r = RunArgs({"decompose", "--input", edges_path, flag, "1",
                 "--out-snapshot", snap});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find(std::string("unknown flag '") + flag + "'"),
              std::string::npos)
        << r.err;
    r = RunArgs({"update", "--snapshot", snap, "--input", edges_path,
                 "--edits", queries, flag, "1"});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find(std::string("unknown flag '") + flag + "'"),
              std::string::npos)
        << r.err;
  }

  for (const auto& p : {edges_path, snap, heap_json, mmap_json, queries,
                        heap_answers, mmap_answers}) {
    std::remove(p.c_str());
  }
}

TEST(Cli, SnapshotUpgradeConvertsV1Losslessly) {
  // A v1 file (checked-in fixture: nothing writes v1 any more) upgrades to
  // v2 and answers byte-identically through the mmap path.
  const std::string v1_snap =
      testing_util::CopyV1Fixture("figure2_core_index", "cli_up_v1.nucsnap");
  const std::string v2_snap = TempPath("cli_up_v2.nucsnap");

  CliResult r =
      RunArgs({"snapshot-upgrade", "--snapshot", v1_snap, "--out", v2_snap});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("(v1) -> " + v2_snap + " (v2)"), std::string::npos);

  const std::string v1_json = TempPath("cli_up_v1.json");
  const std::string v2_json = TempPath("cli_up_v2.json");
  r = RunArgs({"query", "--snapshot", v1_snap, "--u", "0", "--v", "9",
               "--top", "3", "--out-json", v1_json});
  EXPECT_EQ(r.code, 0) << r.err;
  r = RunArgs({"query", "--snapshot", v2_snap, "--memory-mode", "mmap",
               "--u", "0", "--v", "9", "--top", "3", "--out-json", v2_json});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(ReadWholeFile(v1_json), ReadWholeFile(v2_json));

  // Idempotent: upgrading the v2 result round-trips.
  const std::string again = TempPath("cli_up_again.nucsnap");
  r = RunArgs({"snapshot-upgrade", "--snapshot", v2_snap, "--out", again});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("(v2) -> " + again + " (v2)"), std::string::npos);

  EXPECT_EQ(RunArgs({"snapshot-upgrade", "--out", again}).code, 2);
  EXPECT_EQ(RunArgs({"snapshot-upgrade", "--snapshot", v1_snap}).code, 2);
  EXPECT_EQ(RunArgs({"snapshot-upgrade", "--snapshot",
                     TempPath("cli_up_missing.nucsnap"), "--out", again})
                .code,
            1);

  for (const auto& p : {v1_snap, v2_snap, v1_json, v2_json, again}) {
    std::remove(p.c_str());
  }
}

// ---------------------------------------------------------------------------
// Live snapshot updates: `update` command, snapshot chains, serve verb.

/// Picks one existing edge and one non-edge of `g`, deterministically.
void PickEdits(const Graph& g, std::pair<VertexId, VertexId>* removal,
               std::pair<VertexId, VertexId>* insertion) {
  *removal = {kInvalidId, kInvalidId};
  g.ForEachEdge([&](VertexId u, VertexId v) {
    if (removal->first == kInvalidId) *removal = {u, v};
  });
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
      if (!g.HasEdge(u, v)) {
        *insertion = {u, v};
        return;
      }
    }
  }
}

TEST(Cli, UpdatePatchesSnapshotAndChainMatchesFreshDecompose) {
  const std::string edges_path = WriteTestGraph();
  const auto graph = ReadEdgeList(edges_path);
  ASSERT_TRUE(graph.ok());
  std::pair<VertexId, VertexId> removal, insertion;
  PickEdits(*graph, &removal, &insertion);

  // Materialize the edited graph as a file for fresh-decompose comparison.
  GraphBuilder edited_builder(graph->NumVertices());
  graph->ForEachEdge([&](VertexId u, VertexId v) {
    if (std::make_pair(u, v) != removal) edited_builder.AddEdge(u, v);
  });
  edited_builder.AddEdge(insertion.first, insertion.second);
  const std::string edited_path = TempPath("cli_update_edited.txt");
  ASSERT_TRUE(WriteEdgeList(edited_builder.Build(), edited_path).ok());

  const std::string edits_path = TempPath("cli_update_edits.txt");
  {
    std::ofstream edits(edits_path);
    edits << "# one removal, one insertion, one no-op duplicate\n"
          << "- " << removal.first << " " << removal.second << "\n"
          << "+ " << insertion.first << " " << insertion.second << "\n"
          << "+ " << insertion.first << " " << insertion.second << "\n";
  }

  const std::string base = TempPath("cli_update_base.nucsnap");
  const std::string patched = TempPath("cli_update_patched.nucsnap");
  const std::string delta = TempPath("cli_update_d1.nucdelta");
  CliResult r = RunArgs({"decompose", "--input", edges_path, "--family",
                         "core", "--algorithm", "dft", "--out-snapshot",
                         base});
  ASSERT_EQ(r.code, 0) << r.err;

  r = RunArgs({"update", "--snapshot", base, "--input", edges_path,
               "--edits", edits_path, "--out-snapshot", patched,
               "--out-delta", delta});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("applied 2 edit(s), skipped 1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("wrote " + delta), std::string::npos);
  EXPECT_NE(r.out.find("wrote " + patched), std::string::npos);

  // The patched snapshot, the resolved chain, and a fresh kDft decompose
  // of the edited graph must answer identically.
  const auto query_json = [&](const std::vector<std::string>& args) {
    const std::string path = TempPath("cli_update_q.json");
    std::vector<std::string> full = args;
    full.insert(full.end(), {"--u", "0", "--v", "2", "--top", "3",
                             "--out-json", path});
    const CliResult result = RunArgs(full);
    EXPECT_EQ(result.code, 0) << result.err;
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::remove(path.c_str());
    return buffer.str();
  };
  const std::string fresh = query_json({"query", "--input", edited_path,
                                        "--family", "core", "--algorithm",
                                        "dft"});
  EXPECT_EQ(query_json({"query", "--snapshot", patched}), fresh);
  EXPECT_EQ(query_json({"query", "--snapshot", base, "--deltas", delta,
                        "--input", edited_path}),
            fresh);

  // A chain paired with the WRONG graph is rejected.
  EXPECT_EQ(RunArgs({"query", "--snapshot", base, "--deltas", delta,
                     "--input", edges_path, "--u", "0"})
                .code,
            1);

  for (const auto& p :
       {edges_path, edited_path, edits_path, base, patched, delta}) {
    std::remove(p.c_str());
  }
}

TEST(Cli, UpdateValidatesInputs) {
  const std::string edges_path = WriteTestGraph();
  const std::string base = TempPath("cli_upd_val.nucsnap");
  ASSERT_EQ(RunArgs({"decompose", "--input", edges_path, "--family", "core",
                     "--algorithm", "dft", "--out-snapshot", base})
                .code,
            0);

  // Missing required flags.
  EXPECT_EQ(RunArgs({"update", "--snapshot", base}).code, 2);

  // Malformed edit files fail with the line number: bad op, leading
  // whitespace inside a token can't occur (tokenized), but an explicit
  // '+' sign on an id must be rejected (StrictParseInt64 on this surface).
  const std::string bad_edits = TempPath("cli_upd_bad_edits.txt");
  for (const std::string line : {"* 0 1", "+ 0", "+ 0 1 2", "+ +1 2",
                                 "+ 0 2x"}) {
    std::ofstream f(bad_edits);
    f << line << "\n";
    f.close();
    const CliResult r = RunArgs({"update", "--snapshot", base, "--input",
                                 edges_path, "--edits", bad_edits});
    EXPECT_EQ(r.code, 1) << line;
    EXPECT_NE(r.err.find("edit line 1"), std::string::npos) << line;
  }

  // Out-of-range endpoints reject the whole batch.
  {
    std::ofstream f(bad_edits);
    f << "+ 0 99999\n";
  }
  CliResult r = RunArgs({"update", "--snapshot", base, "--input", edges_path,
                         "--edits", bad_edits});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("out of range"), std::string::npos);

  // A truss snapshot cannot be live-updated.
  const std::string truss_snap = TempPath("cli_upd_truss.nucsnap");
  ASSERT_EQ(RunArgs({"decompose", "--input", edges_path, "--family", "truss",
                     "--out-snapshot", truss_snap})
                .code,
            0);
  {
    std::ofstream f(bad_edits);
    f << "+ 0 1\n";
  }
  r = RunArgs({"update", "--snapshot", truss_snap, "--input", edges_path,
               "--edits", bad_edits});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("(1,2) core"), std::string::npos);

  for (const auto& p : {edges_path, base, bad_edits, truss_snap}) {
    std::remove(p.c_str());
  }
}

TEST(Cli, ServeUpdateVerbRequiresInputAndServesEditedGraph) {
  const std::string edges_path = WriteTestGraph();
  const auto graph = ReadEdgeList(edges_path);
  ASSERT_TRUE(graph.ok());
  std::pair<VertexId, VertexId> removal, insertion;
  PickEdits(*graph, &removal, &insertion);

  const std::string base = TempPath("cli_serve_upd.nucsnap");
  ASSERT_EQ(RunArgs({"decompose", "--input", edges_path, "--family", "core",
                     "--algorithm", "dft", "--out-snapshot", base})
                .code,
            0);

  const std::string queries = TempPath("cli_serve_upd_q.txt");
  {
    std::ofstream q(queries);
    q << "lambda " << removal.first << "\n"
      << "update " << removal.first << " " << removal.second << " -\n"
      << "lambda " << removal.first << "\n"
      << "update " << insertion.first << " " << insertion.second << " +\n"
      << "top 3\n";
  }

  // Without --input the update verb is an error object, but the session
  // keeps serving.
  const std::string answers = TempPath("cli_serve_upd_a.txt");
  CliResult r = RunArgs({"serve", "--snapshot", base, "--queries", queries,
                         "--out", answers});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("2 errors, 0 updates"), std::string::npos) << r.err;

  // With --input the updates apply, identically at 1 and 2 threads.
  std::string reference;
  for (const std::string threads : {"1", "2"}) {
    r = RunArgs({"serve", "--snapshot", base, "--input", edges_path,
                 "--queries", queries, "--out", answers, "--threads",
                 threads});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.err.find("updates enabled"), std::string::npos);
    EXPECT_NE(r.err.find("0 errors, 2 updates"), std::string::npos) << r.err;
    std::ifstream ans(answers);
    std::stringstream buffer;
    buffer << ans.rdbuf();
    EXPECT_NE(buffer.str().find("\"query\": \"update\""), std::string::npos);
    EXPECT_NE(buffer.str().find("\"applied\": true"), std::string::npos);
    if (reference.empty()) {
      reference = buffer.str();
    } else {
      EXPECT_EQ(buffer.str(), reference);
    }
  }

  // Serving a graph that does not match the snapshot is a pairing error.
  const std::string other_graph = TempPath("cli_serve_upd_other.txt");
  ASSERT_TRUE(WriteEdgeList(Cycle(8), other_graph).ok());
  r = RunArgs({"serve", "--snapshot", base, "--input", other_graph,
               "--queries", queries});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("does not match"), std::string::npos);

  for (const auto& p : {edges_path, base, queries, answers, other_graph}) {
    std::remove(p.c_str());
  }
}

/// Swaps `fd` onto stdin for one RunArgs call, restoring the original
/// stdin afterwards (connect --port stdin reads STDIN_FILENO raw).
CliResult RunWithStdinFd(int fd, const std::vector<std::string>& args) {
  const int saved = ::dup(0);
  EXPECT_GE(saved, 0);
  EXPECT_EQ(::dup2(fd, 0), 0);
  const CliResult r = RunArgs(args);
  EXPECT_EQ(::dup2(saved, 0), 0);
  ::close(saved);
  return r;
}

// Regression: `connect --port stdin` used to block in getline forever
// when the server process died before announcing its port but the pipe
// stayed open (e.g. a shell pipeline keeping the write end). A closed
// pipe (server exited) must fail immediately with a clear diagnosis.
TEST(Cli, ConnectStdinFailsFastWhenServerDiesBeforeAnnouncing) {
  const std::string queries = TempPath("cli_connect_dead_q.txt");
  { std::ofstream(queries) << "lambda 0\n"; }
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // The server's dying words: stdout chatter, but no announcement line.
  const std::string noise = "serving 1 tenant(s)\n";
  ASSERT_EQ(::write(fds[1], noise.data(), noise.size()),
            static_cast<ssize_t>(noise.size()));
  ::close(fds[1]);  // the server is gone

  const CliResult r = RunWithStdinFd(
      fds[0], {"connect", "--port", "stdin", "--queries", queries});
  ::close(fds[0]);
  std::remove(queries.c_str());
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("stdin closed before"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("listening on"), std::string::npos) << r.err;
}

// The hung-server variant: the pipe stays open but no announcement ever
// arrives. The deadline must fire (default 10 s, configurable) instead
// of waiting forever.
TEST(Cli, ConnectStdinAnnouncementDeadlineFires) {
  const std::string queries = TempPath("cli_connect_hang_q.txt");
  { std::ofstream(queries) << "lambda 0\n"; }
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  const auto start = std::chrono::steady_clock::now();
  const CliResult r = RunWithStdinFd(
      fds[0], {"connect", "--port", "stdin", "--queries", queries,
               "--announce-timeout-ms", "200"});
  std::remove(queries.c_str());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("within 200 ms"), std::string::npos) << r.err;
  EXPECT_GE(elapsed.count(), 200);
  EXPECT_LT(elapsed.count(), 5000);
}

TEST(Cli, ConnectAnnounceTimeoutRequiresStdinPort) {
  const CliResult r = RunArgs({"connect", "--port", "99",
                               "--announce-timeout-ms", "500"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("only applies with --port stdin"), std::string::npos)
      << r.err;
}

}  // namespace
}  // namespace nucleus
