// Snapshot version chains (.nucdelta): incremental maintenance records
// that extend a base .nucsnap without rewriting it.
//
// The paper's motivation for fast hierarchy construction is that graphs
// change; the serving answer to that is the streaming k-core maintenance
// of core/incremental_core.h. A delta record is the durable form of one
// ApplyEdits batch: it stores the edit stream, the sparse lambda patch the
// batch produced, and the fingerprints that pin it between its parent
// state and its child state. A chain
//
//   base.nucsnap <- d1.nucdelta <- d2.nucdelta <- ...
//
// is resolved by ResolveChain back to a materialized SnapshotData for the
// final graph: the base lambdas are patched record by record, and the
// (1,2) hierarchy of the final state is rebuilt in one DF-Traversal pass
// (RebuildCoreHierarchy) — byte-identical, node numbering included, to a
// fresh decomposition of the edited graph by any algorithm. Persisting a
// batch therefore costs O(touched region), not O(graph): the one linear
// pass is deferred to chain resolution, where it is paid once per restart
// instead of once per batch (bench/incremental_update prices both sides).
//
// Deltas are (1,2)-core only: that is the space the incremental
// maintainer updates (Sariyuce et al., PVLDB 2013).
//
// On-disk layout (host byte order, like .nucsnap; see README.md):
//
//   header (112 bytes, fixed):
//     bytes   0..7    magic "NUCDELT1"
//     bytes   8..11   format version (uint32, currently 1)
//     bytes  12..15   flags (uint32, must be 0)
//     bytes  16..19   family (int32, must be Family::kCore12)
//     bytes  20..23   algorithm (int32, must be Algorithm::kDft — a legacy
//                     constant: node numbering does not depend on it)
//     bytes  24..27   |V| (int32, fixed along the whole chain)
//     bytes  28..31   max lambda after the batch (int32)
//     bytes  32..39   |E| before the batch (int64)
//     bytes  40..47   |E| after the batch (int64)
//     bytes  48..55   base fingerprint (uint64: GraphFingerprint recorded
//                     in the chain's root .nucsnap; constant per chain)
//     bytes  56..63   parent fingerprint (uint64: EdgeSetFingerprint of
//                     the pre-state; for the first record, of the base
//                     graph — trusted for the first record, since the base
//                     snapshot stores no edge-set form; the lambda
//                     fingerprints below anchor the first link instead)
//     bytes  64..71   child fingerprint (uint64: EdgeSetFingerprint of
//                     the post-state)
//     bytes  72..79   parent lambda fingerprint (uint64: LambdaFingerprint
//                     of the full pre-state lambda array — verifiable all
//                     the way from the base snapshot's lambdas, so a
//                     dropped or reordered link is caught even when edge
//                     counts happen to balance)
//     bytes  80..87   child lambda fingerprint (uint64, post-state)
//     bytes  88..95   number of edits (int64)
//     bytes  96..103  number of patched vertices (int64)
//     bytes 104..111  reserved (uint64, must be 0)
//   payload:
//     edits           num_edits   x 3 int32   (u, v, op) per edit;
//                                             op 0 = insert, 1 = remove
//     patched_ids     num_patched x int32     strictly ascending vertex ids
//     patched_lambda  num_patched x int32     lambda after the batch
//   footer (8 bytes):
//     checksum (uint64, FNV-1a over header + payload bytes)
//
// LoadDelta applies the same untrusted-input discipline as LoadSnapshot:
// counts are bounded by the file size before any allocation, the expected
// size must match exactly, the checksum must verify, and every structural
// rule above surfaces as a Status — never an abort.
#ifndef NUCLEUS_STORE_DELTA_H_
#define NUCLEUS_STORE_DELTA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nucleus/core/incremental_core.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/util/status.h"

namespace nucleus {

inline constexpr char kDeltaMagic[8] = {'N', 'U', 'C', 'D', 'E', 'L', 'T',
                                        '1'};
inline constexpr std::uint32_t kDeltaVersion = 1;

/// One maintenance batch in serializable form. Produced by
/// serve/LiveUpdater (which owns the fingerprint bookkeeping); consumed by
/// SaveDelta / ResolveChain.
struct DeltaData {
  std::int32_t num_vertices = 0;
  Lambda max_lambda = 0;  // after the batch
  std::int64_t parent_num_edges = 0;
  std::int64_t child_num_edges = 0;
  /// GraphFingerprint stored in the chain's root snapshot.
  std::uint64_t base_fingerprint = 0;
  /// EdgeSetFingerprint of the graph before / after this batch.
  std::uint64_t parent_fingerprint = 0;
  std::uint64_t child_fingerprint = 0;
  /// LambdaFingerprint of the full lambda array before / after this batch.
  std::uint64_t parent_lambda_fingerprint = 0;
  std::uint64_t child_lambda_fingerprint = 0;
  /// The batch as submitted (skipped edits included — the record is also
  /// the audit log of the stream).
  std::vector<EdgeEdit> edits;
  /// Sparse lambda patch: patched_ids ascending, patched_lambda parallel.
  std::vector<VertexId> patched_ids;
  std::vector<Lambda> patched_lambda;
};

/// FNV-1a over a lambda array — the per-record state anchor of a chain.
std::uint64_t LambdaFingerprint(const std::vector<Lambda>& lambda);

/// Writes `delta` to `path` (write-temp-then-rename, checksummed,
/// fsynced), exactly like SaveSnapshotV2.
Status SaveDelta(const DeltaData& delta, const std::string& path);

/// Loads and fully validates one delta record.
StatusOr<DeltaData> LoadDelta(const std::string& path);

/// Where a resolved chain ends: what the next delta's parent /  base
/// fingerprints must be. Passed to serve/LiveUpdater so a maintenance
/// session can extend an existing chain.
struct ChainLink {
  std::uint64_t base_fingerprint = 0;
  std::uint64_t parent_fingerprint = 0;
};

/// Resolves a snapshot chain to materialized state. `paths[0]` is the base
/// .nucsnap, the rest are .nucdelta records in chain order; `graph` is the
/// CURRENT graph (after every recorded batch) — required both to verify
/// the chain's endpoint (EdgeSetFingerprint must match the leaf record)
/// and to rebuild the (1,2) hierarchy of the final state.
///
/// Verification: the base must be a (1,2) snapshot; every record must
/// carry the base's fingerprint and |V|; consecutive records must agree on
/// fingerprints and edge counts; the leaf must match `graph`. The returned
/// SnapshotData carries the patched lambdas, the rebuilt hierarchy
/// (canonical numbering; meta.algorithm stays the base's) and meta
/// refreshed for `graph`; `link` (if non-null) receives the chain
/// endpoint for a continuing LiveUpdater.
StatusOr<SnapshotData> ResolveChain(const std::vector<std::string>& paths,
                                    const Graph& graph,
                                    ChainLink* link = nullptr);

}  // namespace nucleus

#endif  // NUCLEUS_STORE_DELTA_H_
