// Persist & serve: the build-once / query-forever workflow end to end.
//
//   1. decompose a graph once (FND, (2,3) family),
//   2. persist everything downstream of Decompose to a .nucsnap snapshot
//      (lambdas + hierarchy + binary-lifting jump tables),
//   3. load it back — bulk reads, no re-peeling —
//   4. stand up a QueryEngine and answer community queries, including a
//      batched run over the shared ThreadPool and a scripted line-protocol
//      session like the one `nucleus_cli serve` speaks.
#include <iostream>
#include <memory>
#include <sstream>

#include "nucleus/core/decomposition.h"
#include "nucleus/graph/generators.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/scratch.h"
#include "nucleus/util/timer.h"

int main() {
  using namespace nucleus;

  // A planted-partition graph: 6 communities of 40 vertices.
  const Graph g = PlantedPartition(6, 40, 0.5, 0.01, 7);
  std::cout << "graph: " << g.NumVertices() << " vertices, " << g.NumEdges()
            << " edges\n";

  // 1. Decompose once.
  DecomposeOptions options;
  options.family = Family::kTruss23;
  options.algorithm = Algorithm::kFnd;
  Timer decompose_timer;
  const DecompositionResult result = Decompose(g, options);
  std::cout << "decompose: " << result.hierarchy.NumNuclei()
            << " nuclei, max lambda " << result.peel.max_lambda << " in "
            << decompose_timer.Seconds() << "s\n";

  // 2. Persist (with the precomputed HierarchyIndex jump tables).
  const std::string path =
      UniqueScratchPath("/tmp", "persist_and_serve", ".nucsnap");
  ScratchFileRemover remover(path);
  if (Status s = SaveSnapshotV2(MakeSnapshot(g, options, result, true), path);
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  // 3. Load — this is what a serving process does at startup.
  Timer load_timer;
  StatusOr<SnapshotData> snapshot = LoadSnapshot(path);
  if (!snapshot.ok()) {
    std::cerr << snapshot.status().ToString() << "\n";
    return 1;
  }
  std::cout << "snapshot loaded in " << load_timer.Seconds()
            << "s (vs re-decomposing: " << decompose_timer.Seconds()
            << "s)\n";

  // 4a. Point queries through the engine.
  const std::unique_ptr<QueryEngine> engine_ptr =
      QueryEngine::FromSnapshotData(std::move(*snapshot));
  const QueryEngine& engine = *engine_ptr;
  const auto top = engine.TopKDensest(3);
  std::cout << "top " << top.size() << " densest nuclei:\n";
  for (const auto& ref : top) {
    std::cout << "  node " << ref.node << ": k=" << ref.k << ", "
              << ref.size << " edges\n";
  }

  // 4b. A concurrent batch over the shared ThreadPool.
  std::vector<QueryEngine::Query> batch;
  for (CliqueId e = 0; e < std::min<std::int64_t>(64, engine.NumCliques());
       ++e) {
    batch.push_back({QueryEngine::QueryKind::kCommon, e, e + 1});
  }
  ThreadPool pool(ParallelConfig::Auto());
  const auto responses = engine.RunBatch(batch, pool);
  std::int64_t found = 0;
  for (const auto& response : responses) found += response.found ? 1 : 0;
  std::cout << "batch: " << responses.size() << " common-nucleus queries, "
            << found << " pairs share a nucleus\n";

  // 4c. The serve protocol, scripted.
  std::istringstream session(
      "lambda 0\n"
      "nucleus 0 2\n"
      "top 1\n");
  std::ostringstream answers;
  ServeRequests(engine, session, answers);
  std::cout << "scripted serve session:\n" << answers.str();
  return 0;
}
