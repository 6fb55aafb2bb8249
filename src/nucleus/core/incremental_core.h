// Incremental k-core maintenance under edge insertions AND removals — the
// streaming setting of Sariyuce et al. (PVLDB 6(6), 2013) that the paper's
// Section 3.1 discusses as the one line of prior work that respects
// connectivity.
//
// The insertion algorithm is the classic subcore traversal: inserting
// (u, v) can raise core numbers by at most one, and only for vertices in
// the "subcore" of the lower endpoint — the connected set of vertices with
// lambda equal to k = min(lambda(u), lambda(v)). The maintainer collects
// that subcore, computes each member's candidate degree (neighbors with
// larger lambda or inside the subcore), peels members whose candidate
// degree is <= k, and promotes the survivors to k + 1.
//
// Removal is the mirror image: deleting (u, v) can lower core numbers by
// at most one, again only inside the subcore(s) of the endpoint(s) whose
// lambda equals k = min(lambda(u), lambda(v)). Members whose support
// (neighbors with lambda >= k) drops below k demote to k - 1, and each
// demotion cascades through the subcore.
//
// On top of the single-edge primitives this header carries the batch
// update surface the serving stack (store/delta.h, serve/live_update.h)
// is built on: ApplyEdits applies a whole edit stream and reports the
// resulting lambda patch in structured form, and RebuildCoreHierarchy
// turns the patched lambdas back into the exact (1,2) hierarchy a fresh
// decomposition of the edited graph would build.
#ifndef NUCLEUS_CORE_INCREMENTAL_CORE_H_
#define NUCLEUS_CORE_INCREMENTAL_CORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "nucleus/core/hierarchy.h"
#include "nucleus/core/types.h"
#include "nucleus/graph/graph.h"

namespace nucleus {

/// One streamed edge change. Serialized in store/delta.h records, parsed
/// from `nucleus_cli update --edits` files and the serve protocol's
/// `update u v +|-` verb.
enum class EdgeEditOp : std::int32_t {
  kInsert = 0,
  kRemove = 1,
};

struct EdgeEdit {
  VertexId u = 0;
  VertexId v = 0;
  EdgeEditOp op = EdgeEditOp::kInsert;
};

/// Structured result of one ApplyEdits batch: exactly the information a
/// delta record persists (the sparse lambda patch) plus the bookkeeping a
/// caller needs to reason about the batch (how much graph the subcore
/// searches scanned, what the new maximum lambda is).
struct CoreDeltaReport {
  /// Edits that changed the graph.
  std::int64_t applied = 0;
  /// Self-loop edits, inserts of existing edges, removals of missing
  /// edges. Skipping (instead of failing) keeps replayed streams
  /// idempotent; callers that must reject such edits validate up front
  /// (serve/live_update.h).
  std::int64_t skipped = 0;
  /// Total subcore vertices scanned across the batch — the work bound of
  /// the PVLDB'13 algorithm, reported so benches can relate edit cost to
  /// subcore size.
  std::int64_t subcore_visited = 0;
  /// Maximum lambda after the batch.
  Lambda max_lambda = 0;
  /// Vertices whose lambda changed, ascending, with their lambda before
  /// and after the batch (parallel arrays — the lambda patch).
  std::vector<VertexId> touched;
  std::vector<Lambda> old_lambda;
  std::vector<Lambda> new_lambda;
};

/// Order-independent fingerprint of a graph's edge set (plus its vertex
/// count): XOR of a per-edge 64-bit mix. Unlike GraphFingerprint (which
/// hashes the CSR arrays in order), this form is maintainable in O(1) per
/// edge change, which is what lets a delta record carry the identity of
/// its pre- and post-state without an O(E) pass per batch
/// (IncrementalCoreMaintainer keeps the running value).
std::uint64_t EdgeSetFingerprint(const Graph& g);

class IncrementalCoreMaintainer {
 public:
  /// Seeds the maintainer with g's adjacency and core numbers (computed
  /// with the (1,2) peeling). The vertex count is fixed at construction.
  explicit IncrementalCoreMaintainer(const Graph& g);

  /// Seeds from precomputed core numbers (e.g. a loaded snapshot's lambda
  /// array), skipping the peel — the serving start-up path. `lambda` must
  /// be g's exact (1,2) peeling result (size checked; values trusted, so
  /// callers must have validated provenance, e.g. via the snapshot
  /// fingerprint pairing).
  IncrementalCoreMaintainer(const Graph& g, std::vector<Lambda> lambda);

  /// Inserts undirected edge {u, v} and updates core numbers. Returns false
  /// (and changes nothing) for self-loops and existing edges.
  bool InsertEdge(VertexId u, VertexId v);

  /// Removes undirected edge {u, v} and updates core numbers. Returns false
  /// (and changes nothing) for self-loops and missing edges.
  bool RemoveEdge(VertexId u, VertexId v);

  /// Applies `edits` in order and reports the aggregate lambda patch.
  /// Endpoints must be in [0, NumVertices()) (checked); self-loops and
  /// already-satisfied edits are counted as skipped, exactly like the
  /// single-edge primitives.
  CoreDeltaReport ApplyEdits(std::span<const EdgeEdit> edits);

  VertexId NumVertices() const {
    return static_cast<VertexId>(adjacency_.size());
  }
  std::int64_t NumEdges() const { return num_edges_; }
  bool HasEdge(VertexId u, VertexId v) const;

  /// Current core numbers (lambda_2).
  const std::vector<Lambda>& lambda() const { return lambda_; }

  /// Running EdgeSetFingerprint of the current graph, maintained in O(1)
  /// per applied edit. Always equals EdgeSetFingerprint(ToGraph()).
  std::uint64_t edge_set_fingerprint() const { return edge_fingerprint_; }

  /// Materializes the current adjacency as an immutable Graph (hand-off to
  /// the decomposition algorithms and the per-batch hierarchy rebuild).
  /// The adjacency lists are already sorted, so this is a straight CSR
  /// assembly, not a GraphBuilder re-normalization.
  Graph ToGraph() const;

 private:
  std::vector<std::vector<VertexId>> adjacency_;  // each sorted ascending
  std::vector<Lambda> lambda_;
  std::int64_t num_edges_ = 0;
  std::uint64_t edge_fingerprint_ = 0;

  // Scratch reused across insertions.
  std::vector<std::int32_t> candidate_mark_;  // epoch stamps
  std::vector<std::int32_t> candidate_degree_;
  std::int32_t epoch_ = 0;
  // Subcore vertices scanned since the start of the current ApplyEdits
  // batch (reset there, accumulated by the single-edge primitives).
  std::int64_t subcore_visited_ = 0;
};

/// The (1,2) hierarchy of `g` given its peeling result: DF-Traversal
/// (Alg. 5/6) over the vertex space plus the FromSkeleton contraction —
/// byte-identical (node numbering included) to the hierarchy
/// Decompose(g, {kCore12, any algorithm}) builds, but without re-running
/// the peel.
/// This is the rebuild step of the incremental update path: the maintainer
/// supplies the patched lambdas, this supplies the tree.
NucleusHierarchy RebuildCoreHierarchy(const Graph& g, const PeelResult& peel);

}  // namespace nucleus

#endif  // NUCLEUS_CORE_INCREMENTAL_CORE_H_
