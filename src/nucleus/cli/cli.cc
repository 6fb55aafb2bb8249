#include "nucleus/cli/cli.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "nucleus/core/decomposition.h"
#include "nucleus/core/hierarchy_index.h"
#include "nucleus/core/views.h"
#include "nucleus/em/adjacency_file.h"
#include "nucleus/em/semi_external_core.h"
#include "nucleus/em/semi_external_truss.h"
#include "nucleus/graph/binary_io.h"
#include "nucleus/graph/edge_list_io.h"
#include "nucleus/graph/generators.h"
#include "nucleus/graph/graph_stats.h"
#include "nucleus/io/hierarchy_export.h"
#include "nucleus/obs/exposition.h"
#include "nucleus/obs/metrics.h"
#include "nucleus/obs/trace.h"
#include "nucleus/serve/live_update.h"
#include "nucleus/serve/net/tcp_server.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/serve/router/router.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/store/delta.h"
#include "nucleus/store/manifest.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_source.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/mutex.h"
#include "nucleus/util/parse_util.h"
#include "nucleus/util/timer.h"

namespace nucleus {
namespace {

struct ParsedArgs {
  std::string command;
  std::map<std::string, std::string> flags;
};

bool ParseArgs(const std::vector<std::string>& args, ParsedArgs* parsed,
               std::ostream& err) {
  if (args.empty()) {
    err << "error: missing command (decompose | stats | generate)\n";
    return false;
  }
  parsed->command = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag.rfind("--", 0) != 0) {
      err << "error: expected --flag, got '" << flag << "'\n";
      return false;
    }
    if (i + 1 >= args.size()) {
      err << "error: flag '" << flag << "' requires a value\n";
      return false;
    }
    parsed->flags[flag.substr(2)] = args[++i];
  }
  return true;
}

/// Every command declares its flag vocabulary; anything else is an error,
/// so a typo ('--outjson') fails loudly instead of being ignored.
bool CheckFlags(const ParsedArgs& parsed,
                std::initializer_list<const char*> allowed,
                std::ostream& err) {
  for (const auto& [name, value] : parsed.flags) {
    bool known = false;
    for (const char* candidate : allowed) {
      if (name == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      err << "error: unknown flag '--" << name << "' for command '"
          << parsed.command << "'\n";
      return false;
    }
  }
  return true;
}

std::string FlagOr(const ParsedArgs& parsed, const std::string& name,
                   const std::string& fallback) {
  const auto it = parsed.flags.find(name);
  return it == parsed.flags.end() ? fallback : it->second;
}

bool HasFlag(const ParsedArgs& parsed, const std::string& name) {
  return parsed.flags.find(name) != parsed.flags.end();
}

/// Strict integer flag: the whole value must be one number in [min, max];
/// trailing garbage ('--u 3x') is rejected, matching --threads handling.
bool ParseIntFlag(const ParsedArgs& parsed, const std::string& name,
                  std::int64_t fallback, std::int64_t min, std::int64_t max,
                  std::int64_t* out, std::ostream& err) {
  const auto it = parsed.flags.find(name);
  if (it == parsed.flags.end()) {
    *out = fallback;
    return true;
  }
  std::int64_t parsed_value = 0;
  if (!StrictParseInt64(it->second, &parsed_value) || parsed_value < min ||
      parsed_value > max) {
    err << "error: --" << name << " expects an integer in [" << min << ", "
        << max << "], got '" << it->second << "'\n";
    return false;
  }
  *out = parsed_value;
  return true;
}

/// Strict double flag, same trailing-garbage policy.
bool ParseDoubleFlag(const ParsedArgs& parsed, const std::string& name,
                     double fallback, double* out, std::ostream& err) {
  const auto it = parsed.flags.find(name);
  if (it == parsed.flags.end()) {
    *out = fallback;
    return true;
  }
  const std::string& value = it->second;
  errno = 0;
  char* end = nullptr;
  const double parsed_value = std::strtod(value.c_str(), &end);
  if (value.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    err << "error: --" << name << " expects a number, got '" << value
        << "'\n";
    return false;
  }
  *out = parsed_value;
  return true;
}

/// --threads N: 1 = serial (default), 0 = all hardware threads.
bool ParseThreads(const ParsedArgs& parsed, ParallelConfig* parallel,
                  std::ostream& err) {
  std::int64_t threads = 1;
  if (!ParseIntFlag(parsed, "threads", 1, -4096, 4096, &threads, err)) {
    return false;
  }
  parallel->num_threads = static_cast<int>(threads);
  return true;
}

/// Splits a comma-separated flag value ("d1.nucdelta,d2.nucdelta") into
/// its non-empty components.
std::vector<std::string> SplitCommaList(const std::string& value) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    if (end > start) parts.push_back(value.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

/// The shared snapshot/deltas/graph trio rules (store/manifest.h), spelled
/// in CLI flag vocabulary: manifests and the attach verb say
/// `snapshot=`/`deltas=`/`graph=`; here the same rules report as
/// `--snapshot`/`--deltas`/`--input`.
constexpr TenantTrioVocabulary kCliTrioVocabulary{
    "--snapshot (the chain base)", "--deltas", "--input"};

/// --memory-mode heap|mmap: how a plain snapshot is brought to the query
/// surface (read into memory and verified up front vs. mapped zero-copy
/// and verified per section on first use).
bool ParseMemoryMode(const ParsedArgs& parsed, SnapshotMemoryMode* mode,
                     std::ostream& err) {
  const std::string value = FlagOr(parsed, "memory-mode", "heap");
  if (value == "heap") {
    *mode = SnapshotMemoryMode::kHeap;
  } else if (value == "mmap") {
    *mode = SnapshotMemoryMode::kMmap;
  } else {
    err << "error: --memory-mode expects heap or mmap, got '" << value
        << "'\n";
    return false;
  }
  return true;
}

/// Loads --snapshot, resolving --deltas (a comma-separated chain of
/// .nucdelta records) against `graph` when present. Shared by query,
/// serve and update. `link` (optional) receives the chain endpoint for a
/// continuing LiveUpdater; it is set only when deltas were resolved.
StatusOr<SnapshotData> LoadSnapshotOrChain(const std::string& snapshot_path,
                                           const std::string& deltas,
                                           const Graph* graph,
                                           std::optional<ChainLink>* link) {
  if (deltas.empty()) return LoadSnapshot(snapshot_path);
  NUCLEUS_CHECK(graph != nullptr);  // callers enforce --deltas => --input
  std::vector<std::string> paths{snapshot_path};
  for (std::string& path : SplitCommaList(deltas)) {
    paths.push_back(std::move(path));
  }
  ChainLink resolved;
  StatusOr<SnapshotData> snapshot = ResolveChain(paths, *graph, &resolved);
  if (snapshot.ok() && link != nullptr) *link = resolved;
  return snapshot;
}

bool ParseFamily(const std::string& name, Family* family, std::ostream& err) {
  if (name == "core") {
    *family = Family::kCore12;
  } else if (name == "truss") {
    *family = Family::kTruss23;
  } else if (name == "34") {
    *family = Family::kNucleus34;
  } else {
    err << "error: unknown family '" << name << "' (core | truss | 34)\n";
    return false;
  }
  return true;
}

bool ParseAlgorithm(const std::string& name, Algorithm* algorithm,
                    std::ostream& err) {
  if (name == "fnd") {
    *algorithm = Algorithm::kFnd;
  } else if (name == "dft") {
    *algorithm = Algorithm::kDft;
  } else if (name == "lcps") {
    *algorithm = Algorithm::kLcps;
  } else if (name == "naive") {
    *algorithm = Algorithm::kNaive;
  } else {
    err << "error: unknown algorithm '" << name
        << "' (fnd | dft | lcps | naive)\n";
    return false;
  }
  return true;
}

int CmdDecompose(const ParsedArgs& parsed, std::ostream& out,
                 std::ostream& err) {
  if (!CheckFlags(parsed,
                  {"input", "family", "algorithm", "threads", "out-json",
                   "out-dot", "lambda", "out-snapshot"},
                  err)) {
    return 2;
  }
  const std::string input = FlagOr(parsed, "input", "");
  if (input.empty()) {
    err << "error: decompose requires --input\n";
    return 2;
  }
  const Timer load_timer;
  const StatusOr<Graph> graph = ReadEdgeList(input);
  const double load_seconds = load_timer.Seconds();
  if (!graph.ok()) {
    err << "error: " << graph.status().ToString() << "\n";
    return 1;
  }
  DecomposeOptions options;
  if (!ParseFamily(FlagOr(parsed, "family", "core"), &options.family, err) ||
      !ParseAlgorithm(FlagOr(parsed, "algorithm", "fnd"), &options.algorithm,
                      err) ||
      !ParseThreads(parsed, &options.parallel, err)) {
    return 2;
  }
  if (options.algorithm == Algorithm::kLcps &&
      options.family != Family::kCore12) {
    err << "error: lcps supports --family core only\n";
    return 2;
  }
  if (options.algorithm == Algorithm::kNaive) {
    err << "error: naive computes nuclei but no hierarchy; use fnd, dft or "
           "lcps\n";
    return 2;
  }
  // Non-const: the snapshot block at the end moves the hierarchy out.
  DecompositionResult result = Decompose(*graph, options);

  out << "graph: " << graph->NumVertices() << " vertices, "
      << graph->NumEdges() << " edges\n";
  out << "load: " << load_seconds << "s\n";
  out << "family: " << FamilyName(options.family)
      << ", algorithm: " << AlgorithmName(options.algorithm)
      << ", threads: " << options.parallel.ResolvedThreads() << "\n";
  out << "K_r count: " << result.num_cliques
      << ", max lambda: " << result.peel.max_lambda
      << ", nuclei: " << result.hierarchy.NumNuclei()
      << ", sub-nuclei: " << result.num_subnuclei << "\n";
  out << "time: " << result.timings.total_seconds << "s (index "
      << result.timings.index_seconds << ", peel "
      << result.timings.peel_seconds << ", post "
      << result.timings.traverse_seconds << ")\n";

  const HierarchyProfile profile = ProfileHierarchy(result.hierarchy);
  out << "hierarchy: depth " << profile.max_depth << ", leaves "
      << profile.num_leaves << ", avg branching " << profile.avg_branching
      << "\n";
  for (std::int32_t id : TopNucleusNodes(result.hierarchy, 5)) {
    const NucleusReport report =
        ReportNucleus(*graph, options.family, result.hierarchy, id);
    out << "  top nucleus k=" << report.k << ": " << report.num_members
        << " K_r's over " << report.num_vertices
        << " vertices, density " << report.density << "\n";
  }

  const std::string json_path = FlagOr(parsed, "out-json", "");
  if (!json_path.empty()) {
    const Status status =
        WriteStringToFile(HierarchyToJson(result.hierarchy), json_path);
    if (!status.ok()) {
      err << "error: " << status.ToString() << "\n";
      return 1;
    }
    out << "wrote " << json_path << "\n";
  }
  const std::string dot_path = FlagOr(parsed, "out-dot", "");
  if (!dot_path.empty()) {
    const Status status =
        WriteStringToFile(HierarchyToDot(result.hierarchy), dot_path);
    if (!status.ok()) {
      err << "error: " << status.ToString() << "\n";
      return 1;
    }
    out << "wrote " << dot_path << "\n";
  }
  const std::string lambda_path = FlagOr(parsed, "lambda", "");
  if (!lambda_path.empty()) {
    std::ostringstream buffer;
    for (std::size_t i = 0; i < result.peel.lambda.size(); ++i) {
      buffer << i << ' ' << result.peel.lambda[i] << '\n';
    }
    const Status status = WriteStringToFile(buffer.str(), lambda_path);
    if (!status.ok()) {
      err << "error: " << status.ToString() << "\n";
      return 1;
    }
    out << "wrote " << lambda_path << "\n";
  }
  const std::string snapshot_path = FlagOr(parsed, "out-snapshot", "");
  if (!snapshot_path.empty()) {
    // Last use of `result`: move the lambdas and hierarchy into the
    // snapshot instead of deep-copying a potentially huge tree.
    const SnapshotData snapshot =
        MakeSnapshot(*graph, options, std::move(result), /*with_index=*/true);
    if (Status s = SaveSnapshotV2(snapshot, snapshot_path); !s.ok()) {
      err << "error: " << s.ToString() << "\n";
      return 1;
    }
    out << "wrote " << snapshot_path << " ("
        << snapshot.hierarchy.NumNodes() << " nodes, "
        << snapshot.meta.num_cliques << " cliques, with index tables)\n";
  }
  return 0;
}

int CmdStats(const ParsedArgs& parsed, std::ostream& out, std::ostream& err) {
  if (!CheckFlags(parsed, {"input"}, err)) return 2;
  const std::string input = FlagOr(parsed, "input", "");
  if (input.empty()) {
    err << "error: stats requires --input\n";
    return 2;
  }
  const StatusOr<Graph> graph = ReadEdgeList(input);
  if (!graph.ok()) {
    err << "error: " << graph.status().ToString() << "\n";
    return 1;
  }
  const Graph& g = *graph;
  const DegreeStats degrees = ComputeDegreeStats(g);
  std::int32_t components = 0;
  ConnectedComponents(g, &components);
  out << "vertices: " << g.NumVertices() << "\n"
      << "edges: " << g.NumEdges() << "\n"
      << "components: " << components << "\n"
      << "degree min/mean/max: " << degrees.min << " / " << degrees.mean
      << " / " << degrees.max << "\n"
      << "triangles: " << CountTriangles(g) << "\n"
      << "global clustering: " << GlobalClusteringCoefficient(g) << "\n"
      << "degeneracy: " << Degeneracy(g) << "\n";
  return 0;
}

int CmdGenerate(const ParsedArgs& parsed, std::ostream& out,
                std::ostream& err) {
  if (!CheckFlags(parsed, {"type", "out", "n", "param", "seed"}, err)) {
    return 2;
  }
  const std::string type = FlagOr(parsed, "type", "");
  const std::string out_path = FlagOr(parsed, "out", "");
  if (type.empty() || out_path.empty()) {
    err << "error: generate requires --type and --out\n";
    return 2;
  }
  std::int64_t n = 1000;
  std::int64_t seed = 42;
  double param = 0.0;
  if (!ParseIntFlag(parsed, "n", 1000, 1, 2147483647, &n, err) ||
      !ParseIntFlag(parsed, "seed", 42, 0, 9223372036854775807LL, &seed,
                    err) ||
      !ParseDoubleFlag(parsed, "param", 0.0, &param, err)) {
    return 2;
  }

  Graph g;
  if (type == "er") {
    g = ErdosRenyiGnp(static_cast<VertexId>(n), param > 0 ? param : 0.01,
                      static_cast<std::uint64_t>(seed));
  } else if (type == "ba") {
    g = BarabasiAlbert(static_cast<VertexId>(n),
                       param > 0 ? static_cast<VertexId>(param) : 3,
                       static_cast<std::uint64_t>(seed));
  } else if (type == "rmat") {
    int scale = 1;
    while ((std::int64_t{1} << scale) < n) ++scale;
    g = RMat(scale, param > 0 ? static_cast<std::int64_t>(param) : 8 * n,
             0.57, 0.19, 0.19, static_cast<std::uint64_t>(seed));
  } else if (type == "ws") {
    g = WattsStrogatz(static_cast<VertexId>(n), 4, param > 0 ? param : 0.1,
                      static_cast<std::uint64_t>(seed));
  } else if (type == "planted") {
    const VertexId communities = param > 0 ? static_cast<VertexId>(param) : 8;
    g = PlantedPartition(
        communities,
        std::max<VertexId>(static_cast<VertexId>(n) / communities, 2), 0.4,
        0.01, static_cast<std::uint64_t>(seed));
  } else if (type == "caveman") {
    const VertexId caves = param > 0 ? static_cast<VertexId>(param) : 10;
    g = Caveman(caves,
                std::max<VertexId>(static_cast<VertexId>(n) / caves, 3),
                2 * caves, static_cast<std::uint64_t>(seed));
  } else {
    err << "error: unknown type '" << type
        << "' (er | ba | rmat | ws | planted | caveman)\n";
    return 2;
  }
  const Status status = WriteEdgeList(g, out_path);
  if (!status.ok()) {
    err << "error: " << status.ToString() << "\n";
    return 1;
  }
  out << "wrote " << out_path << ": " << g.NumVertices() << " vertices, "
      << g.NumEdges() << " edges\n";
  return 0;
}

int CmdConvert(const ParsedArgs& parsed, std::ostream& out,
               std::ostream& err) {
  if (!CheckFlags(parsed, {"input", "out"}, err)) return 2;
  const std::string input = FlagOr(parsed, "input", "");
  const std::string out_path = FlagOr(parsed, "out", "");
  if (input.empty() || out_path.empty()) {
    err << "error: convert requires --input and --out\n";
    return 2;
  }
  // Direction from the output extension: .nucgraph = binary CSR,
  // anything else = text edge list.
  const bool to_binary = out_path.size() >= 9 &&
                         out_path.compare(out_path.size() - 9, 9,
                                          ".nucgraph") == 0;
  StatusOr<Graph> graph = Status::Internal("unset");
  if (input.size() >= 9 &&
      input.compare(input.size() - 9, 9, ".nucgraph") == 0) {
    graph = ReadBinaryGraph(input);
  } else {
    graph = ReadEdgeList(input);
  }
  if (!graph.ok()) {
    err << "error: " << graph.status().ToString() << "\n";
    return 1;
  }
  const Status status = to_binary ? WriteBinaryGraph(*graph, out_path)
                                  : WriteEdgeList(*graph, out_path);
  if (!status.ok()) {
    err << "error: " << status.ToString() << "\n";
    return 1;
  }
  out << "wrote " << out_path << ": " << graph->NumVertices()
      << " vertices, " << graph->NumEdges() << " edges\n";
  return 0;
}

int CmdSemiExternal(const ParsedArgs& parsed, std::ostream& out,
                    std::ostream& err) {
  if (!CheckFlags(parsed, {"input", "family", "temp"}, err)) return 2;
  const std::string input = FlagOr(parsed, "input", "");
  if (input.empty()) {
    err << "error: semi-external requires --input (a .nucgraph file; "
           "see convert)\n";
    return 2;
  }
  const std::string family = FlagOr(parsed, "family", "core");
  if (family != "core" && family != "truss") {
    err << "error: semi-external supports --family core or truss\n";
    return 2;
  }
  auto file = AdjacencyFile::Open(input);
  if (!file.ok()) {
    err << "error: " << file.status().ToString() << "\n";
    return 1;
  }
  const std::string temp_dir = FlagOr(parsed, "temp", "/tmp");
  out << "graph: " << file->NumVertices() << " vertices, "
      << file->NumEdges() << " edges (on disk)\n";
  if (family == "core") {
    auto result = SemiExternalCoreDecomposition(*file, temp_dir);
    if (!result.ok()) {
      err << "error: " << result.status().ToString() << "\n";
      return 1;
    }
    out << "lambda passes: " << result->lambda_passes
        << ", max lambda: " << result->peel.max_lambda
        << ", sub-cores: " << result->build.num_subnuclei
        << ", adj pairs: " << result->num_adj << "\n";
    out << "io: " << result->io.scans << " scans, "
        << result->io.bytes_read / (1 << 20) << " MB read\n";
  } else {
    auto result = SemiExternalTrussDecomposition(*file, temp_dir);
    if (!result.ok()) {
      err << "error: " << result.status().ToString() << "\n";
      return 1;
    }
    out << "waves: " << result->waves
        << ", max lambda: " << result->peel.max_lambda
        << ", sub-nuclei: " << result->build.num_subnuclei
        << ", adj pairs: " << result->num_adj << "\n";
    out << "io: " << result->io.scans << " scans, "
        << result->io.bytes_read / (1 << 20) << " MB read\n";
  }
  return 0;
}

/// Acquires a query-ready engine from a .nucsnap file (--snapshot, the
/// fast path; --memory-mode picks an owned, eagerly verified copy or a
/// zero-copy mapping), from a snapshot chain (--snapshot + --deltas + --input,
/// resolved through store/delta.h), or by decomposing --input from
/// scratch. Returns nullptr after reporting to `err`.
std::unique_ptr<QueryEngine> AcquireEngine(const ParsedArgs& parsed,
                                           std::ostream& err,
                                           int* exit_code) {
  const std::string snapshot_path = FlagOr(parsed, "snapshot", "");
  const std::string input = FlagOr(parsed, "input", "");
  const std::string deltas = FlagOr(parsed, "deltas", "");
  SnapshotMemoryMode memory_mode = SnapshotMemoryMode::kHeap;
  if (!ParseMemoryMode(parsed, &memory_mode, err)) {
    *exit_code = 2;
    return nullptr;
  }
  if (memory_mode == SnapshotMemoryMode::kMmap &&
      (!deltas.empty() || !input.empty())) {
    err << "error: --memory-mode mmap applies to a plain --snapshot only "
           "(chain resolution and decomposition materialize heap state)\n";
    *exit_code = 2;
    return nullptr;
  }
  if (!deltas.empty()) {
    // Chain resolution patches the base lambdas and rebuilds the (1,2)
    // hierarchy of the final state, which needs the current graph — the
    // same trio rules every serving surface enforces, in CLI spelling.
    if (Status s = CheckTenantTrio(parsed.command, snapshot_path,
                                   SplitCommaList(deltas), input,
                                   kCliTrioVocabulary);
        !s.ok()) {
      err << "error: " << s.message() << "\n";
      *exit_code = 2;
      return nullptr;
    }
    if (HasFlag(parsed, "family") || HasFlag(parsed, "threads") ||
        HasFlag(parsed, "algorithm")) {
      err << "error: --family / --algorithm / --threads do not apply to a "
             "chain (the base snapshot fixes them)\n";
      *exit_code = 2;
      return nullptr;
    }
    const StatusOr<Graph> graph = ReadEdgeList(input);
    if (!graph.ok()) {
      err << "error: " << graph.status().ToString() << "\n";
      *exit_code = 1;
      return nullptr;
    }
    StatusOr<SnapshotData> snapshot =
        LoadSnapshotOrChain(snapshot_path, deltas, &*graph, nullptr);
    if (!snapshot.ok()) {
      err << "error: " << snapshot.status().ToString() << "\n";
      *exit_code = 1;
      return nullptr;
    }
    return QueryEngine::FromSnapshotData(std::move(*snapshot));
  }
  if (snapshot_path.empty() == input.empty()) {
    err << "error: provide exactly one of --snapshot or --input (or "
           "--snapshot with --deltas and --input for a chain)\n";
    *exit_code = 2;
    return nullptr;
  }
  if (!snapshot_path.empty()) {
    // The snapshot already fixes the family and needs no decomposition, so
    // decompose-only flags are errors here, not silently ignored ones.
    if (HasFlag(parsed, "family") || HasFlag(parsed, "threads") ||
        HasFlag(parsed, "algorithm")) {
      err << "error: --family / --algorithm / --threads only apply with "
             "--input (the snapshot already fixes them)\n";
      *exit_code = 2;
      return nullptr;
    }
    StatusOr<std::shared_ptr<const SnapshotSource>> source =
        OpenSnapshotSource(snapshot_path, memory_mode);
    if (!source.ok()) {
      err << "error: " << source.status().ToString() << "\n";
      *exit_code = 1;
      return nullptr;
    }
    return QueryEngine::FromSource(std::move(*source));
  }
  const StatusOr<Graph> graph = ReadEdgeList(input);
  if (!graph.ok()) {
    err << "error: " << graph.status().ToString() << "\n";
    *exit_code = 1;
    return nullptr;
  }
  DecomposeOptions options;
  options.algorithm = Algorithm::kFnd;
  if (!ParseFamily(FlagOr(parsed, "family", "core"), &options.family, err) ||
      !ParseAlgorithm(FlagOr(parsed, "algorithm", "fnd"), &options.algorithm,
                      err) ||
      !ParseThreads(parsed, &options.parallel, err)) {
    *exit_code = 2;
    return nullptr;
  }
  if (options.algorithm == Algorithm::kNaive) {
    err << "error: naive computes no hierarchy; use fnd, dft or lcps\n";
    *exit_code = 2;
    return nullptr;
  }
  if (options.algorithm == Algorithm::kLcps &&
      options.family != Family::kCore12) {
    err << "error: lcps supports --family core only\n";
    *exit_code = 2;
    return nullptr;
  }
  DecompositionResult result = Decompose(*graph, options);
  return QueryEngine::FromSnapshotData(
      MakeSnapshot(*graph, options, std::move(result), /*with_index=*/false));
}

int CmdQuery(const ParsedArgs& parsed, std::ostream& out, std::ostream& err) {
  if (!CheckFlags(parsed,
                  {"input", "snapshot", "deltas", "family", "algorithm",
                   "threads", "u", "v", "k", "top", "out-json",
                   "memory-mode"},
                  err)) {
    return 2;
  }
  std::int64_t u = -1;
  std::int64_t v = -1;
  std::int64_t k = 0;
  std::int64_t top = 0;
  if (!ParseIntFlag(parsed, "u", -1, 0, 2147483647, &u, err) ||
      !ParseIntFlag(parsed, "v", -1, 0, 2147483647, &v, err) ||
      !ParseIntFlag(parsed, "k", 0, 1, 2147483647, &k, err) ||
      !ParseIntFlag(parsed, "top", 0, 1, 2147483647, &top, err)) {
    return 2;
  }
  if (!HasFlag(parsed, "u") && !HasFlag(parsed, "top")) {
    err << "error: query requires --u (with optional --v / --k) and/or "
           "--top\n";
    return 2;
  }
  if ((HasFlag(parsed, "v") || HasFlag(parsed, "k")) &&
      !HasFlag(parsed, "u")) {
    err << "error: --v / --k require --u\n";
    return 2;
  }
  if (HasFlag(parsed, "v") && HasFlag(parsed, "k")) {
    err << "error: --v and --k are mutually exclusive (common nucleus vs "
           "k-nucleus lookup)\n";
    return 2;
  }

  int exit_code = 0;
  const std::unique_ptr<QueryEngine> engine =
      AcquireEngine(parsed, err, &exit_code);
  if (engine == nullptr) return exit_code;
  const bool core_family = engine->meta().family == Family::kCore12;
  const char* member_word = core_family ? "vertices" : "K_r's";

  std::vector<QueryEngine::Query> queries;
  if (HasFlag(parsed, "u")) {
    queries.push_back({QueryEngine::QueryKind::kLambda, u, 0});
    if (HasFlag(parsed, "v")) {
      queries.push_back({QueryEngine::QueryKind::kLambda, v, 0});
      queries.push_back({QueryEngine::QueryKind::kCommon, u, v});
    } else if (HasFlag(parsed, "k")) {
      queries.push_back({QueryEngine::QueryKind::kNucleus, u, k});
    }
  }
  if (HasFlag(parsed, "top")) {
    queries.push_back({QueryEngine::QueryKind::kTop, top, 0});
  }

  std::vector<QueryEngine::Response> responses;
  responses.reserve(queries.size());
  for (const auto& query : queries) responses.push_back(engine->Run(query));

  // Validate everything before printing anything: a failing later query
  // must not leave a half-emitted report on stdout.
  for (const auto& response : responses) {
    if (!response.status.ok()) {
      err << "error: " << response.status.ToString() << "\n";
      return 2;
    }
  }

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& query = queries[i];
    const auto& response = responses[i];
    switch (query.kind) {
      case QueryEngine::QueryKind::kLambda:
        out << "lambda(" << query.a << ") = " << response.lambda;
        // The historical two-lambda prefix of the common-nucleus report.
        out << (i + 1 < queries.size() &&
                        queries[i + 1].kind == QueryEngine::QueryKind::kLambda
                    ? ", "
                    : "\n");
        break;
      case QueryEngine::QueryKind::kCommon:
        if (!response.found) {
          out << "no common nucleus (different components or lambda 0)\n";
        } else {
          out << "smallest common nucleus: k=" << response.nucleus.k
              << " with " << response.nucleus.size << " " << member_word
              << "\n";
        }
        break;
      case QueryEngine::QueryKind::kNucleus:
        if (!response.found) {
          out << "no " << query.b << "-nucleus contains " << query.a
              << " (lambda too small)\n";
        } else {
          out << query.b << "-nucleus of " << query.a << ": node "
              << response.nucleus.node << ", k=" << response.nucleus.k
              << ", " << response.nucleus.size << " " << member_word << "\n";
        }
        break;
      case QueryEngine::QueryKind::kTop:
        out << "top " << response.top.size() << " densest nuclei:\n";
        for (const auto& ref : response.top) {
          out << "  node " << ref.node << ": k=" << ref.k << ", " << ref.size
              << " " << member_word << "\n";
        }
        break;
      default:
        break;
    }
  }

  const std::string json_path = FlagOr(parsed, "out-json", "");
  if (!json_path.empty()) {
    std::ostringstream buffer;
    buffer << "[\n";
    for (std::size_t i = 0; i < queries.size(); ++i) {
      buffer << "  " << ResponseToJson(queries[i], responses[i])
             << (i + 1 < queries.size() ? "," : "") << "\n";
    }
    buffer << "]\n";
    const Status status = WriteStringToFile(buffer.str(), json_path);
    if (!status.ok()) {
      err << "error: " << status.ToString() << "\n";
      return 1;
    }
    out << "wrote " << json_path << "\n";
  }
  return 0;
}

/// Applies one edit batch to a loaded snapshot (or chain) and persists the
/// patched result — the durable half of live maintenance. Requires the
/// current graph: the incremental maintainer needs the adjacency, and the
/// fingerprint pairing proves the snapshot describes exactly this graph.
int CmdUpdate(const ParsedArgs& parsed, std::ostream& out,
              std::ostream& err) {
  if (!CheckFlags(parsed,
                  {"snapshot", "deltas", "input", "edits", "out-snapshot",
                   "out-delta"},
                  err)) {
    return 2;
  }
  const std::string snapshot_path = FlagOr(parsed, "snapshot", "");
  const std::string input = FlagOr(parsed, "input", "");
  const std::string edits_path = FlagOr(parsed, "edits", "");
  if (snapshot_path.empty() || input.empty() || edits_path.empty()) {
    err << "error: update requires --snapshot, --input (the graph the "
           "snapshot was built from) and --edits\n";
    return 2;
  }
  const StatusOr<Graph> graph = ReadEdgeList(input);
  if (!graph.ok()) {
    err << "error: " << graph.status().ToString() << "\n";
    return 1;
  }

  std::optional<ChainLink> link;
  StatusOr<SnapshotData> snapshot = LoadSnapshotOrChain(
      snapshot_path, FlagOr(parsed, "deltas", ""), &*graph, &link);
  if (!snapshot.ok()) {
    err << "error: " << snapshot.status().ToString() << "\n";
    return 1;
  }

  StatusOr<std::unique_ptr<LiveUpdater>> updater =
      LiveUpdater::Create(*graph, *snapshot, link);
  if (!updater.ok()) {
    err << "error: " << updater.status().ToString() << "\n";
    return 1;
  }
  StatusOr<std::vector<EdgeEdit>> edits = ReadEditList(edits_path);
  if (!edits.ok()) {
    err << "error: " << edits.status().ToString() << "\n";
    return 1;
  }

  StatusOr<LiveUpdater::Result> result = Status::Internal("unset");
  {
    MutexLock apply_lock((*updater)->apply_mutex());
    result = (*updater)->Apply(*edits);
  }
  if (!result.ok()) {
    err << "error: " << result.status().ToString() << "\n";
    return 1;
  }
  const CoreDeltaReport& report = result->report;
  out << "graph: " << (*updater)->NumVertices() << " vertices, "
      << (*updater)->NumEdges() << " edges (after edits)\n";
  out << "applied " << report.applied << " edit(s), skipped "
      << report.skipped << ", touched " << report.touched.size()
      << " vertex lambda(s), max lambda " << report.max_lambda
      << ", subcore visits " << report.subcore_visited << "\n";

  const std::string delta_path = FlagOr(parsed, "out-delta", "");
  if (!delta_path.empty()) {
    if (Status s = SaveDelta(result->delta, delta_path); !s.ok()) {
      err << "error: " << s.ToString() << "\n";
      return 1;
    }
    out << "wrote " << delta_path << " (delta: " << result->delta.edits.size()
        << " edit(s), " << result->delta.patched_ids.size()
        << " patched lambda(s))\n";
  }
  const std::string out_snapshot = FlagOr(parsed, "out-snapshot", "");
  if (!out_snapshot.empty()) {
    // An all-skipped batch changes nothing: the loaded (or chain-resolved)
    // state IS the post-state, so persist that instead of re-deriving it.
    const SnapshotData& patched =
        result->changed ? result->snapshot : *snapshot;
    if (Status s = SaveSnapshotV2(patched, out_snapshot); !s.ok()) {
      err << "error: " << s.ToString() << "\n";
      return 1;
    }
    out << "wrote " << out_snapshot << " ("
        << patched.hierarchy.NumNodes() << " nodes, "
        << patched.meta.num_cliques << " cliques, with index tables)\n";
  }
  return 0;
}

/// SIGINT/SIGTERM → graceful drain of the active TCP server.
/// RequestDrain is async-signal-safe (an atomic flag plus a self-pipe
/// write), so the handler may call it directly.
std::atomic<TcpServer*> g_drain_target{nullptr};

extern "C" void HandleDrainSignal(int /*signum*/) {
  TcpServer* server = g_drain_target.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestDrain();
}

/// Serves a started TCP front until it drains (a client's `shutdown` or
/// SIGINT/SIGTERM): starts the optional Prometheus endpoint
/// (`metrics_port` < 0 = none), whose scrapes export the server's and
/// then `publish`'s numbers; writes `banner` to `err`; announces the
/// bound endpoints on stdout so a pipeline can parse an ephemeral port.
/// Returns 1 (server stopped) if the endpoint cannot start, else 0.
int ServeUntilDrained(TcpServer& server, const std::string& host,
                      int metrics_port,
                      std::function<void(obs::MetricsRegistry&)> publish,
                      const std::string& banner, std::ostream& out,
                      std::ostream& err) {
  std::unique_ptr<obs::MetricsExpositionServer> exposition;
  if (metrics_port >= 0) {
    obs::MetricsExpositionServer::Options mopt;
    mopt.host = host;
    mopt.port = metrics_port;
    exposition = std::make_unique<obs::MetricsExpositionServer>(
        [&server, publish = std::move(publish)] {
          obs::MetricsRegistry& m = obs::MetricsRegistry::Global();
          server.PublishMetrics(m);
          if (publish) publish(m);
          return m.ToPrometheusText();
        },
        mopt);
    if (Status s = exposition->Start(); !s.ok()) {
      err << "error: " << s.ToString() << "\n";
      server.Stop();
      return 1;
    }
  }
  g_drain_target.store(&server, std::memory_order_release);
  std::signal(SIGINT, HandleDrainSignal);
  std::signal(SIGTERM, HandleDrainSignal);
  err << banner;
  out << "listening on " << host << ":" << server.port() << "\n";
  if (exposition != nullptr) {
    out << "metrics on " << host << ":" << exposition->port() << "\n";
  }
  out.flush();
  server.Wait();
  if (exposition != nullptr) exposition->Stop();
  g_drain_target.store(nullptr, std::memory_order_release);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  return 0;
}

/// Runs the TCP serving tier over an already-resolved session surface.
int RunTcpServe(const ServeSessionResolver& resolver,
                SnapshotRegistry* registry, const TcpServerOptions& options,
                int metrics_port, std::ostream& out, std::ostream& err) {
  TcpServer server(resolver, registry, options);
  if (Status s = server.Start(); !s.ok()) {
    err << "error: " << s.ToString() << "\n";
    return 1;
  }
  const int served = ServeUntilDrained(
      server, options.host, metrics_port,
      [registry](obs::MetricsRegistry& m) {
        if (registry != nullptr) PublishRegistryMetrics(*registry, m);
      },
      "", out, err);
  if (served != 0) return served;
  const TcpServerStats stats = server.Stats();
  err << "drained: " << stats.connections_accepted << " connection(s), "
      << stats.lines_admitted << " line(s) served, " << stats.lines_rejected
      << " rejected (" << stats.oversized_lines << " oversized), "
      << stats.connections_rejected << " connection(s) over limit\n";
  return 0;
}

/// `nucleus_cli connect`: the loopback client of the TCP tier. Sends
/// protocol lines from --queries (or stdin) to a serve --listen process
/// and writes the response stream to --out (or stdout). With
/// `--port stdin` the port is parsed from the server's own
/// "listening on <host>:<port>" stdout line piped into this process —
/// which lets a shell (or serve_smoke.cmake) wire server and client
/// together without racing on a fixed port.
int CmdConnect(const ParsedArgs& parsed, std::ostream& out,
               std::ostream& err) {
  if (!CheckFlags(parsed,
                  {"host", "port", "queries", "out", "announce-timeout-ms"},
                  err)) {
    return 2;
  }
  std::string host = FlagOr(parsed, "host", "127.0.0.1");
  const std::string port_value = FlagOr(parsed, "port", "");
  if (port_value.empty()) {
    err << "error: connect requires --port <port | stdin>\n";
    return 2;
  }
  const std::string queries_path = FlagOr(parsed, "queries", "");

  std::int64_t port = 0;
  if (port_value == "stdin") {
    if (queries_path.empty()) {
      err << "error: --port stdin consumes stdin for the announcement, so "
             "the request lines must come from --queries\n";
      return 2;
    }
    std::int64_t timeout_ms = 0;
    if (!ParseIntFlag(parsed, "announce-timeout-ms", 10000, 1, 3600000,
                      &timeout_ms, err)) {
      return 2;
    }
    // The server announces `listening on <host>:<port>`; scan stdin for
    // it under a deadline. The scan reads fd 0 raw (poll + read) rather
    // than std::getline: a server that died before announcing while
    // something else still holds the pipe's write end (a forked child, a
    // stopped process) produces neither a line nor EOF, and a blocking
    // getline would hang this client forever.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::string pending;
    bool found = false;
    bool saw_eof = false;
    while (!found && !saw_eof) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      struct pollfd pfd;
      pfd.fd = STDIN_FILENO;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count() +
          1);
      const int r = ::poll(&pfd, 1, wait_ms);
      if (r < 0) {
        if (errno == EINTR) continue;
        saw_eof = true;
        break;
      }
      if (r == 0) break;  // deadline
      char chunk[4096];
      const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        saw_eof = true;
        break;
      }
      pending.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = pending.find('\n', start);
           nl != std::string::npos; nl = pending.find('\n', start)) {
        const std::string line = pending.substr(start, nl - start);
        start = nl + 1;
        const std::string prefix = "listening on ";
        if (line.rfind(prefix, 0) != 0) continue;
        const std::size_t colon = line.rfind(':');
        if (colon == std::string::npos || colon < prefix.size()) continue;
        if (!StrictParseInt64(line.substr(colon + 1), &port) || port <= 0 ||
            port > 65535) {
          continue;
        }
        if (!HasFlag(parsed, "host")) {
          host = line.substr(prefix.size(), colon - prefix.size());
        }
        found = true;
        break;
      }
      pending.erase(0, start);
    }
    if (!found) {
      if (saw_eof) {
        err << "error: stdin closed before a 'listening on <host>:<port>' "
               "line arrived — the server exited (or was killed) before "
               "announcing its port\n";
      } else {
        err << "error: no 'listening on <host>:<port>' line arrived on "
               "stdin within " << timeout_ms
            << " ms — the server likely died (or hung) before announcing; "
               "see --announce-timeout-ms\n";
      }
      return 1;
    }
  } else if (!StrictParseInt64(port_value, &port) || port <= 0 ||
             port > 65535) {
    err << "error: --port expects a port number or 'stdin', got '"
        << port_value << "'\n";
    return 2;
  } else if (HasFlag(parsed, "announce-timeout-ms")) {
    err << "error: --announce-timeout-ms only applies with --port stdin "
           "(it bounds the wait for the server's announcement line)\n";
    return 2;
  }

  std::ifstream query_file;
  if (!queries_path.empty()) {
    query_file.open(queries_path);
    if (!query_file) {
      err << "error: cannot open " << queries_path << "\n";
      return 1;
    }
  }
  std::istream& queries = queries_path.empty() ? std::cin : query_file;
  const std::string out_path = FlagOr(parsed, "out", "");
  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) {
      err << "error: cannot open " << out_path << " for writing\n";
      return 1;
    }
  }
  std::ostream& responses = out_path.empty() ? out : out_file;

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    err << "error: invalid host '" << host << "' (numeric IPv4 expected)\n";
    return 2;
  }
  int fd = -1;
  // A fixed --port may race the server's bind; retry briefly. (With
  // --port stdin the announcement already happened, so the first attempt
  // lands.)
  for (int attempt = 0; attempt < 50; ++attempt) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
    if (errno != ECONNREFUSED) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (fd < 0) {
    err << "error: cannot connect to " << host << ":" << port << ": "
        << std::strerror(errno) << "\n";
    return 1;
  }

  // Writer thread streams requests; the main thread copies responses.
  // Decoupling the two sides means a request file larger than the socket
  // buffers cannot deadlock the client against its own unread responses.
  std::thread writer([fd, &queries] {
    std::string line;
    while (std::getline(queries, line)) {
      line.push_back('\n');
      const char* p = line.data();
      std::size_t left = line.size();
      while (left > 0) {
        const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return;  // server went away; reader reports what it got
        p += n;
        left -= static_cast<std::size_t>(n);
      }
    }
    ::shutdown(fd, SHUT_WR);  // end of requests; server drains and closes
  });

  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, or reset after a drain — both end the copy
    responses.write(chunk, n);
  }
  responses.flush();
  writer.join();
  ::close(fd);
  return 0;
}

int CmdServe(const ParsedArgs& parsed, std::ostream& out, std::ostream& err) {
  if (!CheckFlags(parsed,
                  {"snapshot", "deltas", "input", "queries", "out", "threads",
                   "batch", "registry", "budget-mb", "listen", "max-conns",
                   "high-water", "memory-mode", "trace-log", "trace-sample",
                   "slow-ms", "metrics-port"},
                  err)) {
    return 2;
  }
  const std::string registry_path = FlagOr(parsed, "registry", "");
  const std::string snapshot_path = FlagOr(parsed, "snapshot", "");
  if (registry_path.empty() == snapshot_path.empty()) {
    err << "error: serve requires exactly one of --snapshot (single "
           "tenant) or --registry (multi-tenant manifest)\n";
    return 2;
  }
  const std::string input = FlagOr(parsed, "input", "");
  const std::string deltas = FlagOr(parsed, "deltas", "");
  if (!registry_path.empty() &&
      (!input.empty() || !deltas.empty())) {
    err << "error: --input / --deltas do not apply with --registry (the "
           "manifest names each tenant's graph and deltas)\n";
    return 2;
  }
  if (registry_path.empty() && HasFlag(parsed, "budget-mb")) {
    err << "error: --budget-mb only applies with --registry (a single "
           "snapshot is always resident)\n";
    return 2;
  }
  SnapshotMemoryMode memory_mode = SnapshotMemoryMode::kHeap;
  if (!ParseMemoryMode(parsed, &memory_mode, err)) return 2;
  if (memory_mode == SnapshotMemoryMode::kMmap &&
      (!input.empty() || !deltas.empty())) {
    err << "error: --memory-mode mmap serves read-only snapshots only "
           "(chain resolution and live updates materialize heap state)\n";
    return 2;
  }
  if (registry_path.empty()) {
    // The same snapshot/deltas/graph rules the manifest and the attach
    // verb enforce, spelled in CLI flags.
    if (Status s = CheckTenantTrio(parsed.command, snapshot_path,
                                   SplitCommaList(deltas), input,
                                   kCliTrioVocabulary);
        !s.ok()) {
      err << "error: " << s.message() << "\n";
      return 2;
    }
  }
  ServeOptions options;
  std::int64_t batch = 256;
  std::int64_t budget_mb = 0;
  std::int64_t listen_port = -1;
  std::int64_t max_conns = 64;
  std::int64_t high_water = 1024;
  std::int64_t trace_sample = 1;
  std::int64_t slow_ms = -1;
  std::int64_t metrics_port = -1;
  if (!ParseThreads(parsed, &options.parallel, err) ||
      !ParseIntFlag(parsed, "batch", 256, 1, 1 << 20, &batch, err) ||
      !ParseIntFlag(parsed, "budget-mb", 0, 0, 1 << 20, &budget_mb, err) ||
      !ParseIntFlag(parsed, "listen", -1, 0, 65535, &listen_port, err) ||
      !ParseIntFlag(parsed, "max-conns", 64, 1, 1 << 16, &max_conns, err) ||
      !ParseIntFlag(parsed, "high-water", 1024, 1, 1 << 24, &high_water,
                    err) ||
      !ParseIntFlag(parsed, "trace-sample", 1, 1, 1 << 30, &trace_sample,
                    err) ||
      !ParseIntFlag(parsed, "slow-ms", -1, 0, 1 << 30, &slow_ms, err) ||
      !ParseIntFlag(parsed, "metrics-port", -1, 0, 65535, &metrics_port,
                    err)) {
    return 2;
  }
  options.batch_size = batch;
  const std::string trace_path = FlagOr(parsed, "trace-log", "");
  if (trace_path.empty() &&
      (HasFlag(parsed, "trace-sample") || HasFlag(parsed, "slow-ms"))) {
    err << "error: --trace-sample/--slow-ms only apply with --trace-log\n";
    return 2;
  }
  if (!trace_path.empty()) {
    obs::TraceLog::Options trace_options;
    trace_options.path = trace_path;
    trace_options.sample_every = trace_sample;
    trace_options.slow_ms = slow_ms;
    StatusOr<std::shared_ptr<obs::TraceLog>> trace_log =
        obs::TraceLog::Open(trace_options);
    if (!trace_log.ok()) {
      err << "error: " << trace_log.status().ToString() << "\n";
      return 1;
    }
    options.trace_log = std::move(*trace_log);
    err << "tracing to " << trace_path << " (sample 1/" << trace_sample;
    if (slow_ms >= 0) err << ", slow >= " << slow_ms << " ms";
    err << ")\n";
  }
  const bool listen = HasFlag(parsed, "listen");
  if (!listen && HasFlag(parsed, "metrics-port")) {
    err << "error: --metrics-port only applies with --listen (stdio "
           "sessions expose the registry via the `metrics` verb)\n";
    return 2;
  }
  if (listen && (HasFlag(parsed, "queries") || HasFlag(parsed, "out"))) {
    err << "error: --listen serves over TCP; --queries/--out apply to "
           "stdio sessions (use `nucleus_cli connect` as the client)\n";
    return 2;
  }
  if (!listen && (HasFlag(parsed, "max-conns") || HasFlag(parsed, "high-water"))) {
    err << "error: --max-conns/--high-water only apply with --listen\n";
    return 2;
  }
  TcpServerOptions tcp_options;
  tcp_options.port = static_cast<int>(listen_port < 0 ? 0 : listen_port);
  tcp_options.max_connections = static_cast<int>(max_conns);
  tcp_options.queue_high_water = high_water;

  // Opened only AFTER the snapshot/manifest loads: opening --out
  // truncates it, and a failed startup must not destroy the previous
  // run's transcript.
  const std::string queries_path = FlagOr(parsed, "queries", "");
  const std::string out_path = FlagOr(parsed, "out", "");
  std::ifstream query_file;
  std::ofstream out_file;
  const auto open_streams = [&]() -> bool {
    if (!queries_path.empty()) {
      query_file.open(queries_path);
      if (!query_file) {
        err << "error: cannot open " << queries_path << "\n";
        return false;
      }
    }
    if (!out_path.empty()) {
      out_file.open(out_path);
      if (!out_file) {
        err << "error: cannot open " << out_path << " for writing\n";
        return false;
      }
    }
    return true;
  };
  const auto in_stream = [&]() -> std::istream& {
    return queries_path.empty() ? std::cin : query_file;
  };
  const auto out_stream = [&]() -> std::ostream& {
    return out_path.empty() ? out : out_file;
  };

  if (!registry_path.empty()) {
    // Multi-tenant mode: attach every manifest tenant eagerly, so a
    // broken tenant fails the process at startup with its name attached
    // (runtime faults — eviction re-loads, protocol attaches — stay
    // per-tenant errors inside the session).
    StatusOr<RegistryManifest> manifest = LoadManifest(registry_path);
    if (!manifest.ok()) {
      err << "error: " << manifest.status().ToString() << "\n";
      return 1;
    }
    RegistryOptions registry_options;
    registry_options.memory_budget_bytes = budget_mb * (1 << 20);
    // Read-only tenants honor the mode (mmap maps v2 files zero-copy);
    // live tenants always load heap — the registry sorts that out.
    registry_options.memory_mode = memory_mode;
    SnapshotRegistry registry(registry_options);
    if (Status s = registry.AttachManifest(*manifest); !s.ok()) {
      err << "error: " << s.ToString() << "\n";
      return 1;
    }
    if (!open_streams()) return 1;
    err << "serving " << manifest->tenants.size() << " tenant(s) from "
        << registry_path << ", threads "
        << options.parallel.ResolvedThreads();
    if (budget_mb > 0) {
      err << ", eviction budget " << budget_mb << " MB";
    }
    err << "\n";
    if (listen) {
      tcp_options.serve = options;
      return RunTcpServe(MakeRegistryResolver(registry), &registry,
                         tcp_options, static_cast<int>(metrics_port), out,
                         err);
    }
    const ServeStats stats =
        ServeRegistryRequests(registry, in_stream(), out_stream(), options);
    err << "served " << stats.requests << " requests (" << stats.errors
        << " errors, " << stats.updates << " updates, " << stats.admin
        << " admin) in " << stats.batches << " batches\n";
    return 0;
  }

  // With --input the session is live: the graph is loaded next to the
  // snapshot (fingerprint-checked) and the `update` protocol verb is
  // enabled; without it the session is read-only.
  std::optional<Graph> graph;
  if (!input.empty()) {
    StatusOr<Graph> loaded = ReadEdgeList(input);
    if (!loaded.ok()) {
      err << "error: " << loaded.status().ToString() << "\n";
      return 1;
    }
    graph = std::move(*loaded);
  }

  std::unique_ptr<LiveUpdater> updater;
  std::unique_ptr<QueryEngine> engine;
  if (!graph.has_value() && deltas.empty()) {
    // Read-only session: the source honors --memory-mode (mmap serves a
    // v2 file zero-copy; a v1 file is upgraded in memory either way).
    StatusOr<std::shared_ptr<const SnapshotSource>> source =
        OpenSnapshotSource(snapshot_path, memory_mode);
    if (!source.ok()) {
      err << "error: " << source.status().ToString() << "\n";
      return 1;
    }
    engine = QueryEngine::FromSource(std::move(*source));
  } else {
    std::optional<ChainLink> link;
    StatusOr<SnapshotData> snapshot = LoadSnapshotOrChain(
        snapshot_path, deltas, graph.has_value() ? &*graph : nullptr, &link);
    if (!snapshot.ok()) {
      err << "error: " << snapshot.status().ToString() << "\n";
      return 1;
    }
    if (graph.has_value()) {
      StatusOr<std::unique_ptr<LiveUpdater>> created =
          LiveUpdater::Create(*graph, *snapshot, link);
      if (!created.ok()) {
        err << "error: " << created.status().ToString() << "\n";
        return 1;
      }
      updater = std::move(*created);
    }
    engine = QueryEngine::FromSnapshotData(std::move(*snapshot));
  }
  if (!open_streams()) return 1;
  err << "serving " << FamilyName(engine->meta().family) << " snapshot: "
      << engine->meta().num_cliques << " cliques, "
      << engine->NumNuclei() << " nuclei, max lambda "
      << engine->meta().max_lambda << ", threads "
      << options.parallel.ResolvedThreads()
      << (updater != nullptr ? ", updates enabled" : "")
      << (engine->MappedBytes() > 0 ? ", mmap" : "") << "\n";

  if (listen) {
    tcp_options.serve = options;
    return RunTcpServe(MakeEngineResolver(*engine, updater.get()), nullptr,
                       tcp_options, static_cast<int>(metrics_port), out,
                       err);
  }
  const ServeStats stats = ServeRequests(*engine, updater.get(), in_stream(),
                                         out_stream(), options);
  err << "served " << stats.requests << " requests (" << stats.errors
      << " errors, " << stats.updates << " updates) in " << stats.batches
      << " batches\n";
  return 0;
}

/// `nucleus_cli route`: the cross-process sharding tier. Listens with
/// the same TCP front as `serve --listen`, but instead of resolving
/// queries locally it pins each `<tenant>:` prefix to a backend
/// `serve --listen` process (jump-consistent hash over the --backend
/// list, in order) and relays that backend's responses verbatim — so a
/// tenant's response slice matches a dedicated single-backend session
/// byte for byte. Adds the router-only `migrate <tenant> <host:port>`
/// verb on top of the shared protocol.
int CmdRoute(const ParsedArgs& parsed, std::ostream& out,
             std::ostream& err) {
  if (!CheckFlags(parsed,
                  {"listen", "backend", "max-conns", "high-water", "pool",
                   "inflight", "health-ms", "metrics-port"},
                  err)) {
    return 2;
  }
  const std::string backend_list = FlagOr(parsed, "backend", "");
  if (backend_list.empty()) {
    err << "error: route requires --backend <host:port>[,<host:port>...] "
           "(serve --listen endpoints; LIST ORDER IS TENANT PLACEMENT — "
           "every router given the same list routes identically)\n";
    return 2;
  }
  if (!HasFlag(parsed, "listen")) {
    err << "error: route requires --listen P (0 picks an ephemeral port, "
           "announced as 'listening on <host>:<port>' on stdout)\n";
    return 2;
  }
  std::int64_t listen_port = 0;
  std::int64_t max_conns = 64;
  std::int64_t high_water = 1024;
  std::int64_t pool = 2;
  std::int64_t inflight = 1024;
  std::int64_t health_ms = 250;
  std::int64_t metrics_port = -1;
  if (!ParseIntFlag(parsed, "listen", 0, 0, 65535, &listen_port, err) ||
      !ParseIntFlag(parsed, "max-conns", 64, 1, 1 << 16, &max_conns, err) ||
      !ParseIntFlag(parsed, "high-water", 1024, 1, 1 << 24, &high_water,
                    err) ||
      !ParseIntFlag(parsed, "pool", 2, 1, 64, &pool, err) ||
      !ParseIntFlag(parsed, "inflight", 1024, 1, 1 << 24, &inflight, err) ||
      !ParseIntFlag(parsed, "health-ms", 250, 0, 3600000, &health_ms,
                    err) ||
      !ParseIntFlag(parsed, "metrics-port", -1, 0, 65535, &metrics_port,
                    err)) {
    return 2;
  }
  TenantRouterOptions router_options;
  router_options.backends = SplitCommaList(backend_list);
  router_options.pool_size = static_cast<int>(pool);
  router_options.max_inflight = inflight;
  router_options.health_interval_ms = static_cast<int>(health_ms);
  TenantRouter router(std::move(router_options));
  if (Status s = router.Start(); !s.ok()) {
    err << "error: " << s.ToString() << "\n";
    return 1;
  }
  TcpServerOptions tcp_options;
  tcp_options.port = static_cast<int>(listen_port);
  tcp_options.max_connections = static_cast<int>(max_conns);
  tcp_options.queue_high_water = high_water;
  TcpServer server(router.HandlerFactory(), tcp_options);
  // Installed before Start: once the listener is up, a `stats` verb may
  // read the server from any worker.
  router.set_server(&server);
  if (Status s = server.Start(); !s.ok()) {
    err << "error: " << s.ToString() << "\n";
    return 1;  // ~TenantRouter stops the router
  }
  const TenantRouterStats routing = router.Stats();
  const std::string banner =
      "routing to " + std::to_string(routing.backends) + " backend(s) (" +
      std::to_string(routing.backends_up) + " up), pool " +
      std::to_string(pool) + ", in-flight cap " + std::to_string(inflight) +
      "\n";
  const int served = ServeUntilDrained(
      server, tcp_options.host, static_cast<int>(metrics_port),
      [&router](obs::MetricsRegistry& m) { router.PublishMetrics(m); },
      banner, out, err);
  if (served != 0) return served;
  // Front first, then the backend connections: Stop() must not run while
  // handlers still forward.
  router.Stop();
  const TcpServerStats stats = server.Stats();
  err << "drained: " << stats.connections_accepted << " connection(s), "
      << stats.lines_admitted << " line(s) routed, " << stats.lines_rejected
      << " rejected\n";
  return 0;
}

/// Rewrites a snapshot (either version) in the v2 mmap-friendly layout.
/// Lossless and idempotent: a v2 input round-trips, a v1 input gains the
/// embedded index tables, member store and density ranking.
int CmdSnapshotUpgrade(const ParsedArgs& parsed, std::ostream& out,
                       std::ostream& err) {
  if (!CheckFlags(parsed, {"snapshot", "out"}, err)) return 2;
  const std::string in_path = FlagOr(parsed, "snapshot", "");
  const std::string out_path = FlagOr(parsed, "out", "");
  if (in_path.empty() || out_path.empty()) {
    err << "error: snapshot-upgrade requires --snapshot (the v1 or v2 "
           "input) and --out (the v2 result)\n";
    return 2;
  }
  const StatusOr<std::uint32_t> version = ReadSnapshotVersion(in_path);
  if (!version.ok()) {
    err << "error: " << version.status().ToString() << "\n";
    return 1;
  }
  if (Status s = UpgradeSnapshot(in_path, out_path); !s.ok()) {
    err << "error: " << s.ToString() << "\n";
    return 1;
  }
  out << "upgraded " << in_path << " (v" << *version << ") -> " << out_path
      << " (v2)\n";
  return 0;
}

void PrintUsage(std::ostream& err) {
  err << "usage: nucleus_cli <decompose | stats | generate | convert | "
         "semi-external | query | serve | route | connect | update | "
         "snapshot-upgrade> [--flag value]...\n"
      << "  decompose     --input F [--family core|truss|34] "
         "[--algorithm fnd|dft|lcps] [--threads N] [--out-json F] "
         "[--out-dot F] [--lambda F]\n"
      << "                [--out-snapshot F.nucsnap]\n"
      << "                (snapshots are written in the v2 sectioned "
         "layout, index tables included)\n"
      << "  stats         --input F\n"
      << "  generate      --type er|ba|rmat|ws|planted|caveman --out F "
         "[--n N] [--param P] [--seed S]\n"
      << "  convert       --input F --out G   (.nucgraph <-> edge list)\n"
      << "  semi-external --input F.nucgraph [--family core|truss] "
         "[--temp DIR]\n"
      << "  query         (--snapshot F.nucsnap [--deltas D1,D2 --input F] "
         "| --input F [--family ...] [--algorithm ...]) "
         "[--memory-mode heap|mmap] "
         "--u A [--v B | --k K] [--top N] [--out-json F]\n"
      << "  serve         (--snapshot F.nucsnap [--deltas D1,D2] [--input F] "
         "| --registry M [--budget-mb N]) [--memory-mode heap|mmap] "
         "[--queries F] [--out F] [--threads N] [--batch N]\n"
      << "                (--memory-mode heap reads the snapshot into "
         "memory and verifies every section up front; mmap maps it "
         "zero-copy and verifies each section on first use — read-only "
         "surfaces only; live tenants and chains stay heap)\n"
      << "                (--input pairs the graph and enables the "
         "'update u v +|-' protocol verb; (1,2) snapshots only)\n"
      << "                (--registry serves many tenants from a manifest: "
         "'tenant <name> snapshot=<path> [deltas=..] [graph=..]' per line; "
         "protocol lines become '<tenant>:<verb> ...' plus "
         "attach/detach/tenants; --budget-mb bounds resident engines via "
         "LRU eviction)\n"
      << "                (--listen P serves the same protocol over "
         "loopback TCP instead of stdio — 0 picks an ephemeral port, "
         "announced as 'listening on <host>:<port>' on stdout; "
         "[--max-conns N] caps connections, [--high-water N] bounds each "
         "connection's admission queue; SIGINT/SIGTERM or the `shutdown` "
         "verb drain gracefully)\n"
      << "                (observability: [--trace-log F] writes sampled "
         "JSON-lines request traces, [--trace-sample N] records 1 in N, "
         "[--slow-ms T] always records requests at or over T ms; "
         "[--metrics-port P] with --listen serves Prometheus text on "
         "'metrics on <host>:<port>'; the `metrics [text]` verb works in "
         "every session)\n"
      << "  route         --listen P --backend H1:P1[,H2:P2...] [--pool N] "
         "[--inflight N] [--health-ms T] [--max-conns N] [--high-water N] "
         "[--metrics-port P]\n"
      << "                (cross-process sharding tier: pins each "
         "'<tenant>:<verb>' line to a backend serve --listen process — "
         "jump-consistent hash over the --backend list, IN ORDER — and "
         "relays responses verbatim; admin verbs fan out and merge; "
         "'migrate <tenant> <host:port> [spec args]' moves a tenant "
         "between backends via detach-persist + attach; --health-ms pings "
         "backends with `stats`, down backends fail fast with structured "
         "errors until re-admitted)\n"
      << "  connect       --port <P|stdin> [--host H] [--queries F] "
         "[--out F] [--announce-timeout-ms T]\n"
      << "                (TCP client for serve --listen; --port stdin "
         "parses the port from a piped-in 'listening on' announcement)\n"
      << "  update        --snapshot F.nucsnap [--deltas D1,D2] --input F "
         "--edits E [--out-snapshot G.nucsnap] [--out-delta D.nucdelta]\n"
      << "                (edit lines: '+ u v' inserts, '- u v' removes; "
         "see store/README.md for the chain format)\n"
      << "  snapshot-upgrade --snapshot F.nucsnap --out G.nucsnap\n"
      << "                (rewrites a v1 snapshot, or a v2 one, in the v2 "
         "layout; lossless — the result answers byte-identically)\n"
      << "query/serve ids are K_r ids of the decomposition's family: "
         "vertex ids (core), edge ids (truss), triangle ids (34)\n";
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  ParsedArgs parsed;
  if (!ParseArgs(args, &parsed, err)) {
    PrintUsage(err);
    return 2;
  }
  if (parsed.command == "decompose") return CmdDecompose(parsed, out, err);
  if (parsed.command == "stats") return CmdStats(parsed, out, err);
  if (parsed.command == "generate") return CmdGenerate(parsed, out, err);
  if (parsed.command == "convert") return CmdConvert(parsed, out, err);
  if (parsed.command == "semi-external") {
    return CmdSemiExternal(parsed, out, err);
  }
  if (parsed.command == "query") return CmdQuery(parsed, out, err);
  if (parsed.command == "serve") return CmdServe(parsed, out, err);
  if (parsed.command == "route") return CmdRoute(parsed, out, err);
  if (parsed.command == "connect") return CmdConnect(parsed, out, err);
  if (parsed.command == "update") return CmdUpdate(parsed, out, err);
  if (parsed.command == "snapshot-upgrade") {
    return CmdSnapshotUpgrade(parsed, out, err);
  }
  err << "error: unknown command '" << parsed.command << "'\n";
  PrintUsage(err);
  return 2;
}

}  // namespace nucleus
