#include "nucleus/serve/live_update.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

#include "nucleus/obs/metrics.h"
#include "nucleus/util/parse_util.h"

namespace nucleus {
namespace {

std::int64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

LiveUpdater::LiveUpdater(const Graph& g, std::vector<Lambda> lambda,
                         const ChainLink& link, Algorithm algorithm)
    : maintainer_(g, std::move(lambda)),
      base_fingerprint_(link.base_fingerprint),
      algorithm_(algorithm),
      parent_fingerprint_(link.parent_fingerprint),
      parent_lambda_fingerprint_(LambdaFingerprint(maintainer_.lambda())) {}

StatusOr<std::unique_ptr<LiveUpdater>> LiveUpdater::Create(
    const Graph& g, const SnapshotData& snapshot,
    const std::optional<ChainLink>& link) {
  const SnapshotMeta& meta = snapshot.meta;
  if (meta.family != Family::kCore12) {
    return Status::InvalidArgument(
        "live updates support (1,2) core snapshots only (the incremental "
        "maintainer updates the k-core space)");
  }
  if (meta.num_vertices != g.NumVertices() ||
      meta.num_cliques != g.NumVertices()) {
    return Status::InvalidArgument(
        "snapshot does not match the graph: vertex count differs");
  }
  if (meta.num_edges != g.NumEdges()) {
    return Status::InvalidArgument(
        "snapshot does not match the graph: edge count differs");
  }
  if (meta.graph_fingerprint != GraphFingerprint(g)) {
    return Status::InvalidArgument(
        "snapshot does not match the graph: fingerprint differs (decompose "
        "this graph, or pass the graph the snapshot was built from)");
  }
  ChainLink resolved;
  if (link.has_value()) {
    resolved = *link;
  } else {
    resolved.base_fingerprint = meta.graph_fingerprint;
    resolved.parent_fingerprint = EdgeSetFingerprint(g);
  }
  return std::unique_ptr<LiveUpdater>(
      new LiveUpdater(g, snapshot.peel.lambda, resolved, meta.algorithm));
}

StatusOr<LiveUpdater::Result> LiveUpdater::Apply(
    std::span<const EdgeEdit> edits) {
  const bool timing = obs::MetricsEnabled();
  const auto apply_start = std::chrono::steady_clock::now();
  // Validate the whole batch before touching anything: a rejected batch
  // must leave the maintained state (and the chain bookkeeping) unchanged.
  const VertexId n = maintainer_.NumVertices();
  for (std::size_t i = 0; i < edits.size(); ++i) {
    const EdgeEdit& edit = edits[i];
    if (edit.u < 0 || edit.u >= n || edit.v < 0 || edit.v >= n) {
      return Status::InvalidArgument(
          "edit " + std::to_string(i) + ": vertex out of range [0, " +
          std::to_string(n) + ")");
    }
    if (edit.u == edit.v) {
      return Status::InvalidArgument("edit " + std::to_string(i) +
                                     ": self-loops are not allowed");
    }
    if (edit.op != EdgeEditOp::kInsert && edit.op != EdgeEditOp::kRemove) {
      return Status::InvalidArgument("edit " + std::to_string(i) +
                                     ": unknown operation");
    }
  }

  Result result;
  const std::int64_t parent_num_edges = maintainer_.NumEdges();
  result.report = maintainer_.ApplyEdits(edits);

  // Chain record: the durable form of this batch.
  result.delta.num_vertices = n;
  result.delta.max_lambda = result.report.max_lambda;
  result.delta.parent_num_edges = parent_num_edges;
  result.delta.child_num_edges = maintainer_.NumEdges();
  result.delta.base_fingerprint = base_fingerprint_;
  result.delta.parent_fingerprint = parent_fingerprint_;
  result.delta.child_fingerprint = maintainer_.edge_set_fingerprint();
  result.delta.parent_lambda_fingerprint = parent_lambda_fingerprint_;
  result.delta.child_lambda_fingerprint =
      LambdaFingerprint(maintainer_.lambda());
  result.delta.edits.assign(edits.begin(), edits.end());
  result.delta.patched_ids = result.report.touched;
  result.delta.patched_lambda = result.report.new_lambda;
  parent_fingerprint_ = result.delta.child_fingerprint;
  parent_lambda_fingerprint_ = result.delta.child_lambda_fingerprint;

  result.changed = result.report.applied > 0;
  if (!result.changed) {
    if (timing) {
      obs::MetricsRegistry::Global()
          .GetHistogram("nucleus_update_apply_us")
          ->Observe(ElapsedUs(apply_start));
    }
    return result;  // nothing to materialize or swap
  }

  // Servable post-state: patched lambdas + the hierarchy a fresh
  // decomposition of the edited graph would build. The one linear pass
  // here (CSR assembly + DF-Traversal) is the price of serving exact
  // answers immediately; the durable path above cost only O(touched).
  const auto rebuild_start = std::chrono::steady_clock::now();
  const Graph g = maintainer_.ToGraph();
  result.snapshot.meta.family = Family::kCore12;
  result.snapshot.meta.algorithm = algorithm_;
  result.snapshot.meta.num_vertices = n;
  result.snapshot.meta.num_edges = g.NumEdges();
  result.snapshot.meta.graph_fingerprint = GraphFingerprint(g);
  result.snapshot.meta.num_cliques = n;
  result.snapshot.meta.max_lambda = result.report.max_lambda;
  result.snapshot.peel.lambda = maintainer_.lambda();
  result.snapshot.peel.max_lambda = result.report.max_lambda;
  result.snapshot.hierarchy = RebuildCoreHierarchy(g, result.snapshot.peel);
  result.snapshot.has_index = false;
  if (timing) {
    obs::MetricsRegistry& m = obs::MetricsRegistry::Global();
    // The rebuild (CSR assembly + DF-Traversal) is the O(V+E) tail the
    // ROADMAP wants sublinear; tracking it separately from the whole
    // apply shows exactly how much of an update batch it costs.
    m.GetHistogram("nucleus_update_rebuild_us")
        ->Observe(ElapsedUs(rebuild_start));
    m.GetHistogram("nucleus_update_apply_us")->Observe(ElapsedUs(apply_start));
  }
  return result;
}

StatusOr<std::vector<EdgeEdit>> ParseEditList(const std::string& text) {
  std::vector<EdgeEdit> edits;
  std::istringstream stream(text);
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;

    std::istringstream fields(line);
    std::string op, u_token, v_token, extra;
    fields >> op >> u_token >> v_token;
    const bool has_extra = static_cast<bool>(fields >> extra);
    std::int64_t u = 0;
    std::int64_t v = 0;
    if ((op != "+" && op != "-") || v_token.empty() || has_extra ||
        !StrictParseInt64(u_token, &u) || !StrictParseInt64(v_token, &v) ||
        u < 0 || v < 0 || u > 2147483647 || v > 2147483647) {
      return Status::InvalidArgument(
          "edit line " + std::to_string(line_no) +
          ": expected '+ <u> <v>' or '- <u> <v>' with non-negative "
          "integer ids");
    }
    EdgeEdit edit;
    edit.u = static_cast<VertexId>(u);
    edit.v = static_cast<VertexId>(v);
    edit.op = op == "+" ? EdgeEditOp::kInsert : EdgeEditOp::kRemove;
    edits.push_back(edit);
  }
  return edits;
}

StatusOr<std::vector<EdgeEdit>> ReadEditList(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseEditList(buffer.str());
}

}  // namespace nucleus
