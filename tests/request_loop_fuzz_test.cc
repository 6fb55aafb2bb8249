// Protocol fuzz / conformance sweep for the serve request loop, routed
// and unrouted: a seeded-random generator mixes valid request lines with
// every malformed shape an untrusted client can produce — unknown verbs,
// wrong arity, truncated and overflowing numbers, oversized tokens,
// embedded NUL bytes, broken tenant prefixes, garbled admin verbs — and
// the loop must (a) never crash, (b) answer EXACTLY one JSON object per
// request line, (c) report every failure as a structured JSON error, not
// an abort, and (d) produce byte-identical transcripts at every thread
// count and batch size.
#include <cstdint>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/graph/edge_list_io.h"
#include "nucleus/obs/metrics.h"
#include "nucleus/obs/trace.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::TempPath;

/// The protocol's own skip rule: blank and comment lines produce no
/// output. The conformance contract is one JSON object per NON-skipped
/// line.
bool IsSkippedLine(const std::string& line) {
  const std::size_t start = line.find_first_not_of(" \t\r");
  return start == std::string::npos || line[start] == '#';
}

/// One deterministic fuzz corpus. Every shape below appears many times
/// across the 600 lines; the seed pins the exact mix so transcripts can
/// be compared across configurations.
std::vector<std::string> BuildCorpus(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick_int = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const std::vector<std::string> verbs = {"lambda", "nucleus", "common",
                                          "level",  "top",     "members"};
  const std::vector<std::string> tenants = {"alpha", "beta", "ghost"};

  std::vector<std::string> lines;
  for (int i = 0; i < 600; ++i) {
    std::string line;
    switch (pick_int(0, 13)) {
      case 0: {  // valid unrouted query, ids possibly out of range
        const std::string& verb = verbs[static_cast<std::size_t>(
            pick_int(0, static_cast<std::int64_t>(verbs.size()) - 1))];
        line = verb + " " + std::to_string(pick_int(-3, 40));
        if (verb == "nucleus" || verb == "common" || verb == "level") {
          line += " " + std::to_string(pick_int(-3, 40));
        }
        break;
      }
      case 1: {  // valid routed query (tenant may be unknown)
        const std::string& tenant = tenants[static_cast<std::size_t>(
            pick_int(0, static_cast<std::int64_t>(tenants.size()) - 1))];
        line = tenant + ":lambda " + std::to_string(pick_int(0, 12));
        break;
      }
      case 2:  // unknown verb
        line = "frobnicate " + std::to_string(pick_int(0, 9));
        break;
      case 3: {  // wrong arity
        line = verbs[static_cast<std::size_t>(pick_int(0, 5))];
        for (std::int64_t k = pick_int(0, 4); k > 0; --k) {
          if (k != 1 || pick_int(0, 1) == 0) line += " 1";
        }
        // Make genuinely wrong arity likely but not guaranteed; valid
        // lines sneaking through is part of the mix.
        break;
      }
      case 4:  // trailing garbage / truncated numbers
        line = "lambda " + std::to_string(pick_int(0, 99)) +
               (pick_int(0, 1) == 0 ? "x" : ".5");
        break;
      case 5:  // overflow
        line = "members 99999999999999999999999999999999";
        break;
      case 6: {  // oversized token
        line = std::string(static_cast<std::size_t>(pick_int(100, 8192)),
                           'x') +
               " 1";
        break;
      }
      case 7: {  // embedded NUL and control bytes
        line = "lambda 1";
        line[pick_int(0, 1) == 0 ? 6 : 2] = '\0';
        if (pick_int(0, 1) == 0) line += '\x01';
        break;
      }
      case 8:  // broken tenant prefixes
        switch (pick_int(0, 3)) {
          case 0: line = ":lambda 1"; break;
          case 1: line = "alpha: 1"; break;
          case 2: line = "bad name!:lambda 1"; break;
          default: line = "alpha:"; break;
        }
        break;
      case 9:  // garbled admin verbs
        switch (pick_int(0, 3)) {
          case 0: line = "attach"; break;
          case 1: line = "attach x nonsense"; break;
          case 2: line = "detach"; break;
          default: line = "tenants extra"; break;
        }
        break;
      case 10:  // attach pointing at a missing file: structured error
        line = "attach t" + std::to_string(pick_int(0, 9)) +
               " snapshot=/nonexistent/p" + std::to_string(pick_int(0, 9)) +
               ".nucsnap";
        break;
      case 11:  // update lines, valid and malformed
        switch (pick_int(0, 3)) {
          case 0: line = "update 0 5 +"; break;
          case 1: line = "update 0 5 *"; break;
          case 2: line = "alpha:update 1 2 -"; break;
          default: line = "update -1 2 +"; break;
        }
        break;
      case 12:  // comments / blanks: must produce NO output
        line = pick_int(0, 1) == 0 ? "# comment " : "   \t ";
        break;
      default:  // signs the strict parser must reject
        line = "lambda +" + std::to_string(pick_int(0, 9));
        break;
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string script;
  for (const std::string& line : lines) {
    script += line;
    script += '\n';
  }
  return script;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  for (std::string line; std::getline(stream, line);) {
    lines.push_back(line);
  }
  return lines;
}

/// Structural conformance of one transcript against its corpus: one JSON
/// object per non-skipped line, every object brace-delimited, control
/// bytes escaped (never raw), and both successes and structured errors
/// present (the corpus guarantees the mix).
void CheckConformance(const std::vector<std::string>& corpus,
                      const std::string& transcript) {
  std::size_t expected = 0;
  for (const std::string& line : corpus) {
    if (!IsSkippedLine(line)) ++expected;
  }
  const std::vector<std::string> responses = SplitLines(transcript);
  ASSERT_EQ(responses.size(), expected);

  std::size_t errors = 0;
  for (const std::string& response : responses) {
    ASSERT_FALSE(response.empty());
    EXPECT_EQ(response.front(), '{') << response;
    EXPECT_EQ(response.back(), '}') << response;
    for (char c : response) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
          << "raw control byte in: " << response;
    }
    if (response.find("\"error\"") != std::string::npos) ++errors;
  }
  EXPECT_GT(errors, 0u);
  EXPECT_LT(errors, responses.size());
}

std::unique_ptr<QueryEngine> MakeFigure2Engine() {
  const Graph g = testing_util::PaperFigure2Graph();
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kFnd;
  const DecompositionResult result = Decompose(g, options);
  return QueryEngine::FromSnapshotData(MakeSnapshot(g, options, result, true));
}

TEST(RequestLoopFuzz, SingleTenantNoCrashOneJsonPerLineThreadInvariant) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  for (const std::uint64_t seed : {1u, 7u, 990131u}) {
    SCOPED_TRACE(seed);
    const std::vector<std::string> corpus = BuildCorpus(seed);
    const std::string script = JoinLines(corpus);
    std::string reference;
    for (const int threads : {1, 2, 4, 8}) {
      for (const std::int64_t batch : {1, 7, 256}) {
        ServeOptions options;
        options.parallel.num_threads = threads;
        options.batch_size = batch;
        std::istringstream in(script);
        std::ostringstream out;
        ServeRequests(*engine, in, out, options);
        if (reference.empty()) {
          reference = out.str();
          CheckConformance(corpus, reference);
        } else {
          EXPECT_EQ(out.str(), reference)
              << "threads=" << threads << " batch=" << batch;
        }
      }
    }
  }
}

TEST(RequestLoopFuzz, RoutedRegistryNoCrashOneJsonPerLineThreadInvariant) {
  // Two real tenants; the corpus also routes to a "ghost" tenant and
  // attaches nonexistent ones, so the resolver's failure paths fuzz too.
  const Graph alpha_graph = testing_util::PaperFigure2Graph();
  const Graph beta_graph = Complete(6);
  DecomposeOptions alpha_options;
  alpha_options.family = Family::kCore12;
  alpha_options.algorithm = Algorithm::kDft;
  const std::string alpha_snapshot = TempPath("fuzz_alpha.nucsnap");
  ASSERT_TRUE(SaveSnapshotV2(
                  MakeSnapshot(alpha_graph, alpha_options,
                               Decompose(alpha_graph, alpha_options), true),
                  alpha_snapshot)
                  .ok());
  const std::string alpha_edges = TempPath("fuzz_alpha_edges.txt");
  ASSERT_TRUE(WriteEdgeList(alpha_graph, alpha_edges).ok());
  DecomposeOptions beta_options;
  beta_options.family = Family::kTruss23;
  const std::string beta_snapshot = TempPath("fuzz_beta.nucsnap");
  ASSERT_TRUE(SaveSnapshotV2(
                  MakeSnapshot(beta_graph, beta_options,
                               Decompose(beta_graph, beta_options), true),
                  beta_snapshot)
                  .ok());

  TenantSpec alpha;
  alpha.name = "alpha";
  alpha.snapshot_path = alpha_snapshot;
  alpha.graph_path = alpha_edges;  // live: alpha:update fuzz lines apply
  TenantSpec beta;
  beta.name = "beta";
  beta.snapshot_path = beta_snapshot;

  for (const std::uint64_t seed : {3u, 41u}) {
    SCOPED_TRACE(seed);
    const std::vector<std::string> corpus = BuildCorpus(seed);
    const std::string script = JoinLines(corpus);
    std::string reference;
    for (const int threads : {1, 2, 4, 8}) {
      for (const std::int64_t batch : {1, 17}) {
        // Admin verbs and updates mutate the registry, so every run gets
        // a fresh, identically seeded one — determinism must come from
        // the loop, not from leftover state.
        SnapshotRegistry registry;
        ASSERT_TRUE(registry.Attach(alpha).ok());
        ASSERT_TRUE(registry.Attach(beta).ok());
        ServeOptions options;
        options.parallel.num_threads = threads;
        options.batch_size = batch;
        std::istringstream in(script);
        std::ostringstream out;
        ServeRegistryRequests(registry, in, out, options);
        if (reference.empty()) {
          reference = out.str();
          CheckConformance(corpus, reference);
        } else {
          EXPECT_EQ(out.str(), reference)
              << "threads=" << threads << " batch=" << batch;
        }
      }
    }
  }
}

// The observability hard constraint, fuzz-grade: serving the corpus
// with tracing AND metrics enabled yields a transcript byte-identical
// to the untraced reference at every thread count — instrumentation is
// a pure side channel. The trace file itself must be one well-formed
// JSON object per recorded span.
TEST(RequestLoopFuzz, TranscriptUnchangedWithTracingAndMetricsEnabled) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  for (const std::uint64_t seed : {1u, 990131u}) {
    SCOPED_TRACE(seed);
    const std::vector<std::string> corpus = BuildCorpus(seed);
    const std::string script = JoinLines(corpus);

    std::string reference;
    {
      std::istringstream in(script);
      std::ostringstream out;
      ServeRequests(*engine, in, out);
      reference = out.str();
    }

    for (const int threads : {1, 2, 4, 8}) {
      const std::string trace_path =
          TempPath("fuzz_trace_" + std::to_string(seed) + "_t" +
                   std::to_string(threads) + ".jsonl");
      obs::TraceLog::Options trace_options;
      trace_options.path = trace_path;
      trace_options.slow_ms = 0;  // slow path exercised on every span
      StatusOr<std::shared_ptr<obs::TraceLog>> trace_log =
          obs::TraceLog::Open(trace_options);
      ASSERT_TRUE(trace_log.ok());
      obs::MetricsRegistry metrics;  // fresh registry per run
      ServeOptions options;
      options.parallel.num_threads = threads;
      options.batch_size = 7;
      options.trace_log = *trace_log;
      options.metrics = &metrics;
      std::istringstream in(script);
      std::ostringstream out;
      ServeRequests(*engine, in, out, options);
      EXPECT_EQ(out.str(), reference) << "threads=" << threads;

      std::size_t expected = 0;
      for (const std::string& line : corpus) {
        if (!IsSkippedLine(line)) ++expected;
      }
      EXPECT_EQ((*trace_log)->spans_seen(),
                static_cast<std::int64_t>(expected));
      std::ifstream trace_file(trace_path);
      std::size_t spans = 0;
      for (std::string line; std::getline(trace_file, line);) {
        ++spans;
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
      }
      EXPECT_EQ(spans, expected) << "threads=" << threads;
    }
  }
}

TEST(RequestLoopFuzz, ParserNeverAcceptsEmbeddedNulTokens) {
  // Directed probes for the nastiest shapes, independent of the random
  // mix: NUL inside the verb, inside an argument, as a whole token.
  std::string nul_verb = "lambda 1";
  nul_verb[2] = '\0';
  EXPECT_FALSE(ParseServeLine(nul_verb).ok());
  std::string nul_arg = "lambda 1";
  nul_arg[7] = '\0';
  EXPECT_FALSE(ParseServeLine(nul_arg).ok());
  EXPECT_FALSE(ParseServeLine(std::string("lambda \0", 8)).ok());
  // And the routed parser rejects NUL in tenant names.
  std::string nul_tenant = "ab:lambda 1";
  nul_tenant[1] = '\0';
  EXPECT_FALSE(ParseRoutedServeLine(nul_tenant).ok());
}

TEST(RequestLoopFuzz, OversizedTokensAreTruncatedInErrors) {
  const std::string huge(100000, 'z');
  // The echo is capped on every untrusted-token error path: a 100KB
  // token must never become a 100KB error. Verb...
  const StatusOr<ServeRequest> parsed = ParseServeLine(huge + " 1");
  ASSERT_FALSE(parsed.ok());
  EXPECT_LT(parsed.status().message().size(), 300u);
  // ...tenant prefix...
  const StatusOr<RoutedServeLine> routed =
      ParseRoutedServeLine(huge + ":lambda 1");
  ASSERT_FALSE(routed.ok());
  EXPECT_LT(routed.status().message().size(), 300u);
  // ...and the attach verb's tenant-name / key=value surfaces
  // (store/manifest.h), exercised through a real registry session.
  SnapshotRegistry registry;
  std::istringstream in("attach " + huge + " snapshot=x\n" +
                        "attach t " + huge + "\n" +
                        "attach t " + huge + "=v\n");
  std::ostringstream out;
  const ServeStats stats = ServeRegistryRequests(registry, in, out);
  EXPECT_EQ(stats.errors, 3);
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) {
    EXPECT_LT(line.size(), 400u) << line.substr(0, 120);
    EXPECT_NE(line.find("\"error\""), std::string::npos);
  }
}

}  // namespace
}  // namespace nucleus
