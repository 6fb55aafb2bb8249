// LiveUpdater: the orchestration layer of live snapshot maintenance.
//
// A serving process pairs three things: the current graph, the snapshot
// state derived from it, and (since PR 4) a stream of edge edits. The
// updater owns the middle of that pipeline — it keeps the incremental
// k-core maintainer (core/incremental_core.h) seeded from the snapshot's
// lambdas, and turns each validated edit batch into
//
//   * a CoreDeltaReport        (what changed),
//   * a DeltaData chain record (the durable form, store/delta.h), and
//   * a materialized SnapshotData of the post-state (the servable form:
//     patched lambdas + the rebuilt (1,2) hierarchy, byte-identical to a
//     fresh decomposition of the edited graph by any algorithm),
//
// leaving the caller to wire the pieces: QueryEngine::ApplyUpdate for
// serving without a restart, SaveDelta / SaveSnapshotV2 for persistence.
//
// Edits arrive from untrusted surfaces (the serve protocol's `update`
// verb, `nucleus_cli update --edits` files), so Apply validates the whole
// batch up front and applies nothing on rejection. Updates are (1,2)-core
// only — the space the streaming maintenance of Sariyuce et al.
// (PVLDB 2013) covers.
#ifndef NUCLEUS_SERVE_LIVE_UPDATE_H_
#define NUCLEUS_SERVE_LIVE_UPDATE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nucleus/core/incremental_core.h"
#include "nucleus/store/delta.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/util/mutex.h"
#include "nucleus/util/status.h"

namespace nucleus {

class LiveUpdater {
 public:
  /// One applied batch, in every form downstream consumers need.
  struct Result {
    CoreDeltaReport report;
    DeltaData delta;
    /// True iff the batch changed the graph (report.applied > 0).
    bool changed = false;
    /// Post-state snapshot: (1,2), no index tables (the engine or a later
    /// save builds them on demand); meta.algorithm is the base
    /// snapshot's. Only populated when `changed` — an all-skipped batch
    /// leaves the served state as-is, so there is nothing to swap in and
    /// the O(V+E) materialization is skipped (idempotent replays stay
    /// O(edits)).
    SnapshotData snapshot;
  };

  /// Validates that `snapshot` is the (1,2) state of `g` — family,
  /// vertex / clique / edge counts and the graph fingerprint must all
  /// match — and seeds the maintainer from the snapshot's lambdas (no
  /// re-peel). Any building algorithm is accepted: node ids are canonical
  /// (NucleusHierarchy::FromSkeleton), so each post-state numbers nodes
  /// exactly as a fresh decomposition of the edited graph would.
  /// `link` continues an existing chain (the ChainLink ResolveChain
  /// returned); without it the snapshot is treated as a chain base.
  /// `g` is copied into the maintainer's adjacency; it need not outlive
  /// the updater.
  static StatusOr<std::unique_ptr<LiveUpdater>> Create(
      const Graph& g, const SnapshotData& snapshot,
      const std::optional<ChainLink>& link = std::nullopt);

  /// Validates `edits` (every endpoint in range, no self-loops — anything
  /// else rejects the WHOLE batch with InvalidArgument and changes
  /// nothing), applies them, and rebuilds the post-state. Inserts of
  /// existing edges and removals of missing edges are valid no-ops,
  /// counted in report.skipped.
  /// REQUIRES(apply_mutex_): even single-threaded callers take a
  /// MutexLock on apply_mutex() first — the compile-time contract does
  /// not know which callers later grow concurrent.
  StatusOr<Result> Apply(std::span<const EdgeEdit> edits)
      REQUIRES(apply_mutex_);

  VertexId NumVertices() const { return maintainer_.NumVertices(); }
  std::int64_t NumEdges() const { return maintainer_.NumEdges(); }
  const IncrementalCoreMaintainer& maintainer() const { return maintainer_; }

  /// Serializes concurrent users of ONE updater. Apply mutates the
  /// maintainer and advances the fingerprint chain, so it is not
  /// thread-safe by itself; callers that share an updater across threads
  /// (the TCP tier: many connections, one engine or one registry tenant)
  /// hold this across the whole apply sequence — Apply, the engine swap,
  /// the dirty marking — so updates serialize and the delta chain and the
  /// served state advance in the same order.
  Mutex& apply_mutex() RETURN_CAPABILITY(apply_mutex_) {
    return apply_mutex_;
  }

 private:
  LiveUpdater(const Graph& g, std::vector<Lambda> lambda,
              const ChainLink& link, Algorithm algorithm);

  Mutex apply_mutex_;
  /// The maintainer is mutated only by Apply (REQUIRES apply_mutex_) but
  /// read lock-free by the NumVertices/NumEdges/maintainer() accessors,
  /// which callers use only from the applying thread — so it is
  /// deliberately not GUARDED_BY(apply_mutex_).
  IncrementalCoreMaintainer maintainer_;
  std::uint64_t base_fingerprint_;
  /// The base snapshot's meta.algorithm, carried into every post-state.
  Algorithm algorithm_;
  /// EdgeSetFingerprint / LambdaFingerprint of the state the NEXT delta
  /// descends from; both advance to the child values after every Apply.
  std::uint64_t parent_fingerprint_ GUARDED_BY(apply_mutex_);
  std::uint64_t parent_lambda_fingerprint_ GUARDED_BY(apply_mutex_);
};

/// Parses a `nucleus_cli update --edits` file: one edit per line,
///
///   + <u> <v>    insert undirected edge {u, v}
///   - <u> <v>    remove undirected edge {u, v}
///
/// with '#' comments and blank lines skipped. Integers are strict
/// (util/parse_util.h); any malformed line fails the whole file with its
/// line number.
StatusOr<std::vector<EdgeEdit>> ParseEditList(const std::string& text);

/// Reads and parses an edit file from disk.
StatusOr<std::vector<EdgeEdit>> ReadEditList(const std::string& path);

}  // namespace nucleus

#endif  // NUCLEUS_SERVE_LIVE_UPDATE_H_
