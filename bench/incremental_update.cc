// Incremental-update bench: patch-and-save vs full re-decompose.
//
// The paper motivates fast hierarchy construction with evolving graphs;
// this bench prices the two ways a (1,2) serving deployment can absorb an
// edit batch:
//
//   * rebuild+save — what every batch cost before the update path existed:
//     Decompose (kDft, hierarchy), MakeSnapshot with index tables, and a
//     full SaveSnapshotV2. Measured once per batch against the then-current
//     graph.
//   * patch+save   — the incremental path: IncrementalCoreMaintainer::
//     ApplyEdits (subcore-local work) plus SaveDelta of the chain record
//     (O(touched) bytes). The one linear pass the chain defers — the
//     DF-Traversal hierarchy rebuild — is priced separately in the
//     `resolve` column: it is paid once per restart (ResolveChain), not
//     once per batch, and the `live` column shows it again as the
//     in-memory update latency a serving session pays per batch
//     (LiveUpdater::Apply includes the rebuild so answers are exact
//     immediately).
//
// Correctness is enforced inline like the other serving benches: after the
// last batch the delta chain is resolved against the edited graph and must
// match a fresh kDft decomposition exactly (lambda array, hierarchy node
// arrays, clique assignment); any divergence fails the bench.
//
// Datasets: the three sparse web/internet proxies (skitter, google,
// wiki-0611). Streaming k-core maintenance is built for exactly that
// regime — large sparse graphs whose lambda-level subcores are small; the
// small dense facebook100-style proxies are the opposite regime (subcores
// span half the graph, and a full rebuild is already sub-3ms there), so
// one of them is printed for context but kept out of the gated JSON.
//
// Flags:
//   --quick       CI smoke mode: fewer batches
//   --json F      write {"bench": "incremental_update", "results": {...}}
//                 for the perf-regression gate (patch_speedup per dataset)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "nucleus/bench/datasets.h"
#include "nucleus/bench/table.h"
#include "nucleus/core/decomposition.h"
#include "nucleus/core/incremental_core.h"
#include "nucleus/serve/live_update.h"
#include "nucleus/store/delta.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/mutex.h"
#include "nucleus/util/rng.h"
#include "nucleus/util/scratch.h"
#include "nucleus/util/timer.h"

namespace nucleus {
namespace {

struct Options {
  bool quick = false;
  std::string json_path;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    } else {
      std::cerr << "usage: incremental_update [--quick] [--json FILE]\n";
      std::exit(2);
    }
  }
  return options;
}

/// A deterministic evolving-graph workload: random endpoint pairs, removed
/// when the edge exists and inserted otherwise — the mixed stream the
/// PVLDB'13 setting assumes.
std::vector<EdgeEdit> MakeBatch(const IncrementalCoreMaintainer& maintainer,
                                Rng& rng, std::int64_t size) {
  std::vector<EdgeEdit> edits;
  edits.reserve(static_cast<std::size_t>(size));
  const VertexId n = maintainer.NumVertices();
  while (static_cast<std::int64_t>(edits.size()) < size) {
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

bool SameHierarchy(const NucleusHierarchy& a, const NucleusHierarchy& b) {
  if (a.NumNodes() != b.NumNodes() || a.NumCliques() != b.NumCliques()) {
    return false;
  }
  for (std::int32_t i = 0; i < a.NumNodes(); ++i) {
    if (a.node(i).lambda != b.node(i).lambda ||
        a.node(i).parent != b.node(i).parent ||
        a.node(i).members != b.node(i).members) {
      return false;
    }
  }
  for (CliqueId u = 0; u < a.NumCliques(); ++u) {
    if (a.NodeOfClique(u) != b.NodeOfClique(u)) return false;
  }
  return true;
}

void Run(const Options& options) {
  const std::int64_t num_batches = options.quick ? 8 : 32;
  const std::int64_t batch_size = 64;
  std::cout << "Incremental update: patch-and-save (ApplyEdits + SaveDelta)\n"
            << "vs full re-decompose (kDft + index tables + SaveSnapshotV2)\n"
            << "per batch of " << batch_size << " mixed edge edits ("
            << num_batches << " batches"
            << (options.quick ? ", quick mode" : "") << ")\n\n";

  TablePrinter table({"graph", "V", "E", "rebuild+save", "patch+save",
                      "speedup", "live", "resolve", "subcore/edit"});
  std::vector<std::pair<std::string, double>> json_rows;

  // The gated sparse trio plus one dense facebook-style proxy for
  // contrast (reported, never gated: its subcores span the graph, so the
  // incremental path is the wrong tool there and the table says so).
  const std::vector<std::string> names{"skitter-syn", "google-syn",
                                       "wiki-0611-syn", "stanford3-syn"};
  const std::size_t num_gated = 3;

  for (std::size_t name_index = 0; name_index < names.size(); ++name_index) {
    const DatasetSpec& spec = DatasetByName(names[name_index]);
    const Graph base_graph = spec.make();

    DecomposeOptions decompose_options;
    decompose_options.family = Family::kCore12;
    decompose_options.algorithm = Algorithm::kDft;

    // Base snapshot: the chain root.
    const std::string base_path = UniqueScratchPath(
        "/tmp", "incr_update_" + spec.name + "_base", ".nucsnap");
    ScratchFileRemover base_remover(base_path);
    SnapshotData base_snapshot =
        MakeSnapshot(base_graph, decompose_options,
                     Decompose(base_graph, decompose_options),
                     /*with_index=*/true);
    if (Status s = SaveSnapshotV2(base_snapshot, base_path); !s.ok()) {
      std::cerr << "error: " << s.ToString() << "\n";
      std::exit(1);
    }

    StatusOr<std::unique_ptr<LiveUpdater>> updater =
        LiveUpdater::Create(base_graph, base_snapshot);
    if (!updater.ok()) {
      std::cerr << "error: " << updater.status().ToString() << "\n";
      std::exit(1);
    }
    // A second maintainer drives the durable patch path in isolation so
    // the LiveUpdater's in-memory rebuild (the `live` column) never leaks
    // into the patch+save timing.
    IncrementalCoreMaintainer patch_maintainer(base_graph,
                                               base_snapshot.peel.lambda);

    Rng rng(20260728 + static_cast<std::uint64_t>(name_index));
    std::vector<std::string> chain_paths{base_path};
    // ScratchFileRemover is pinned in place (no copy/move); a deque never
    // relocates elements, so emplace_back works.
    std::deque<ScratchFileRemover> delta_removers;

    double patch_seconds = 0.0;
    double rebuild_seconds = 0.0;
    double live_seconds = 0.0;
    std::int64_t subcore_total = 0;
    std::uint64_t base_fingerprint = base_snapshot.meta.graph_fingerprint;
    std::uint64_t parent_fingerprint = EdgeSetFingerprint(base_graph);
    std::uint64_t lambda_fingerprint =
        LambdaFingerprint(base_snapshot.peel.lambda);

    for (std::int64_t batch = 0; batch < num_batches; ++batch) {
      const std::vector<EdgeEdit> edits =
          MakeBatch(patch_maintainer, rng, batch_size);

      // Durable patch path: subcore-local maintenance + an O(touched)
      // chain record.
      const std::string delta_path = UniqueScratchPath(
          "/tmp", "incr_update_" + spec.name, ".nucdelta");
      delta_removers.emplace_back(delta_path);
      Timer patch_timer;
      const std::int64_t parent_edges = patch_maintainer.NumEdges();
      const CoreDeltaReport report = patch_maintainer.ApplyEdits(edits);
      DeltaData delta;
      delta.num_vertices = patch_maintainer.NumVertices();
      delta.max_lambda = report.max_lambda;
      delta.parent_num_edges = parent_edges;
      delta.child_num_edges = patch_maintainer.NumEdges();
      delta.base_fingerprint = base_fingerprint;
      delta.parent_fingerprint = parent_fingerprint;
      delta.child_fingerprint = patch_maintainer.edge_set_fingerprint();
      delta.parent_lambda_fingerprint = lambda_fingerprint;
      delta.child_lambda_fingerprint =
          LambdaFingerprint(patch_maintainer.lambda());
      delta.edits = edits;
      delta.patched_ids = report.touched;
      delta.patched_lambda = report.new_lambda;
      if (Status s = SaveDelta(delta, delta_path); !s.ok()) {
        std::cerr << "error: " << s.ToString() << "\n";
        std::exit(1);
      }
      patch_seconds += patch_timer.Seconds();
      parent_fingerprint = delta.child_fingerprint;
      lambda_fingerprint = delta.child_lambda_fingerprint;
      subcore_total += report.subcore_visited;
      chain_paths.push_back(delta_path);

      // Serving path: same edits through the LiveUpdater, which also
      // rebuilds the hierarchy so a QueryEngine could swap state now.
      Timer live_timer;
      StatusOr<LiveUpdater::Result> live = Status::Internal("unset");
      {
        MutexLock apply_lock((*updater)->apply_mutex());
        live = (*updater)->Apply(edits);
      }
      if (!live.ok()) {
        std::cerr << "error: " << live.status().ToString() << "\n";
        std::exit(1);
      }
      live_seconds += live_timer.Seconds();

      // Rebuild path: what the same batch costs without the update
      // machinery — re-decompose the current graph and save a full
      // snapshot.
      const Graph current = patch_maintainer.ToGraph();
      const std::string rebuild_path = UniqueScratchPath(
          "/tmp", "incr_update_" + spec.name + "_full", ".nucsnap");
      ScratchFileRemover rebuild_remover(rebuild_path);
      Timer rebuild_timer;
      const SnapshotData full =
          MakeSnapshot(current, decompose_options,
                       Decompose(current, decompose_options),
                       /*with_index=*/true);
      if (Status s = SaveSnapshotV2(full, rebuild_path); !s.ok()) {
        std::cerr << "error: " << s.ToString() << "\n";
        std::exit(1);
      }
      rebuild_seconds += rebuild_timer.Seconds();
    }

    // Restart path + correctness: resolving the chain must reproduce a
    // fresh decomposition of the edited graph exactly.
    const Graph final_graph = patch_maintainer.ToGraph();
    Timer resolve_timer;
    StatusOr<SnapshotData> resolved = ResolveChain(chain_paths, final_graph);
    const double resolve_seconds = resolve_timer.Seconds();
    if (!resolved.ok()) {
      std::cerr << "error: " << resolved.status().ToString() << "\n";
      std::exit(1);
    }
    const DecompositionResult fresh =
        Decompose(final_graph, decompose_options);
    if (resolved->peel.lambda != fresh.peel.lambda ||
        !SameHierarchy(resolved->hierarchy, fresh.hierarchy)) {
      std::cerr << "error: chain-resolved state diverges from a fresh "
                   "decomposition on "
                << spec.name << "\n";
      std::exit(1);
    }

    const double patch_avg = patch_seconds / num_batches;
    const double rebuild_avg = rebuild_seconds / num_batches;
    const double speedup = rebuild_avg / patch_avg;
    table.AddRow({spec.paper_name, FormatCount(base_graph.NumVertices()),
                  FormatCount(base_graph.NumEdges()),
                  FormatSeconds(rebuild_avg), FormatSeconds(patch_avg),
                  FormatSpeedup(speedup),
                  FormatSeconds(live_seconds / num_batches),
                  FormatSeconds(resolve_seconds),
                  FormatCount(subcore_total / (num_batches * batch_size))});
    if (name_index < num_gated) {
      json_rows.emplace_back(spec.paper_name, speedup);
    }
  }

  table.Print(std::cout);
  std::cout
      << "\nspeedup = rebuild+save / patch+save per batch (acceptance bar:"
      << "\n>= 10x on the sparse proxies). `live` adds the in-memory"
      << "\nhierarchy rebuild a serving session pays per batch; `resolve`"
      << "\nis the once-per-restart chain materialization, verified above"
      << "\nagainst a fresh decomposition of the edited graph.\n";

  if (!options.json_path.empty()) {
    std::FILE* f = std::fopen(options.json_path.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "error: cannot write " << options.json_path << "\n";
      std::exit(1);
    }
    std::fprintf(f, "{\n  \"bench\": \"incremental_update\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", options.quick ? "true" : "false");
    std::fprintf(f, "  \"batches\": %lld,\n",
                 static_cast<long long>(num_batches));
    std::fprintf(f, "  \"batch_size\": %lld,\n",
                 static_cast<long long>(batch_size));
    std::fprintf(f, "  \"results\": {\n");
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      std::fprintf(f, "    \"%s\": {\"patch_speedup\": %.4f}%s\n",
                   json_rows[i].first.c_str(), json_rows[i].second,
                   i + 1 < json_rows.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::cout << "\nwrote " << options.json_path << "\n";
  }
}

}  // namespace
}  // namespace nucleus

int main(int argc, char** argv) {
  nucleus::Run(nucleus::ParseArgs(argc, argv));
  return 0;
}
