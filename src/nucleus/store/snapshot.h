// Persistent hierarchy snapshots (.nucsnap): the durable form of a
// decomposition result.
//
// The paper's premise is that the hierarchy is built ONCE so that
// community-search questions become cheap tree lookups. A snapshot
// captures everything downstream of Decompose — the per-clique lambdas,
// the contracted NucleusHierarchy, the binary-lifting tables of
// HierarchyIndex — so a serving process (serve/query_engine.h) opens what
// a decomposition takes peel + traversal time to recompute.
//
// This header holds the format-independent pieces: SnapshotMeta /
// SnapshotData, MakeSnapshot, and the version-dispatching LoadSnapshot.
// The format is v2 (snapshot_v2.h, written by SaveSnapshotV2, served by
// store/snapshot_source.h). The original v1 layout is only READ, so old
// files can be upgraded (LoadSnapshot, OpenSnapshotSource in either memory
// mode, `nucleus_cli snapshot-upgrade`); nothing writes it any more. Its
// spec stays in README.md in this directory. The v1 reader validates
// untrusted input as strictly as the v2 one — short files, bad magic,
// impossible headers, payload/checksum mismatches and structurally
// inconsistent trees all surface as Status errors, never as aborts or
// over-allocation.
#ifndef NUCLEUS_STORE_SNAPSHOT_H_
#define NUCLEUS_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "nucleus/core/decomposition.h"
#include "nucleus/core/hierarchy.h"
#include "nucleus/core/hierarchy_index.h"
#include "nucleus/core/types.h"
#include "nucleus/graph/graph.h"
#include "nucleus/util/status.h"

namespace nucleus {

inline constexpr char kSnapshotMagic[8] = {'N', 'U', 'C', 'S',
                                           'N', 'A', 'P', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::uint32_t kSnapshotFlagHasIndex = 1u;

/// Identity of a snapshot: what was decomposed and how. Checked against the
/// graph a serving process pairs the snapshot with (see GraphFingerprint).
struct SnapshotMeta {
  Family family = Family::kCore12;
  Algorithm algorithm = Algorithm::kFnd;
  std::int32_t num_vertices = 0;
  std::int64_t num_edges = 0;
  std::uint64_t graph_fingerprint = 0;
  std::int64_t num_cliques = 0;
  Lambda max_lambda = 0;
};

/// Everything a snapshot round-trips. Plain movable data: the optional
/// HierarchyIndex travels as raw tables, not as a built index, so moving a
/// SnapshotData can never dangle an internal pointer — consumers
/// (QueryEngine) bind the tables to their own stored hierarchy.
struct SnapshotData {
  SnapshotMeta meta;
  PeelResult peel;
  NucleusHierarchy hierarchy;
  bool has_index = false;
  HierarchyIndexTables index_tables;
};

/// FNV-1a over |V|, the CSR offsets and the adjacency array — a cheap
/// stand-in for content equality between the snapshot's source graph and
/// the graph a query process pairs it with.
std::uint64_t GraphFingerprint(const Graph& g);

/// Packages a decomposition result for persistence. `result` must carry a
/// built hierarchy (build_tree, i.e. kDft / kFnd / kLcps). `with_index`
/// additionally precomputes and embeds the HierarchyIndex jump tables so
/// the load path skips even that construction. The rvalue overload moves
/// the peel vector and hierarchy out of `result` instead of deep-copying
/// them — use it when the result is not needed afterwards (large graphs:
/// the copy doubles peak memory at the worst moment).
SnapshotData MakeSnapshot(const Graph& g, const DecomposeOptions& options,
                          const DecompositionResult& result, bool with_index);
SnapshotData MakeSnapshot(const Graph& g, const DecomposeOptions& options,
                          DecompositionResult&& result, bool with_index);

/// Loads a .nucsnap file of either version into a heap SnapshotData: v2
/// files through LoadSnapshotV2, v1 files through header validation,
/// single-allocation bulk array reads, checksum verification, then full
/// structural validation of the tree and (if present) the jump tables.
/// Every corruption mode returns a Status; `hierarchy` is rebuilt
/// (NucleusHierarchy::FromParts for v2, which keeps the file's node ids).
/// A v1 file is renumbered canonically (NucleusHierarchy::FromSkeleton)
/// and keeps its has_index flag, with the jump tables rebuilt for the new
/// ids.
StatusOr<SnapshotData> LoadSnapshot(const std::string& path);

/// Reads and validates only the header (either version) — a cheap probe
/// for tooling.
StatusOr<SnapshotMeta> ReadSnapshotMeta(const std::string& path);

}  // namespace nucleus

#endif  // NUCLEUS_STORE_SNAPSHOT_H_
