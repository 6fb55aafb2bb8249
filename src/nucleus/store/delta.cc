#include "nucleus/store/delta.h"

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "nucleus/store/record_io.h"
#include "nucleus/util/file_util.h"

namespace nucleus {
namespace {

using store_internal::ChecksummingReader;
using store_internal::ChecksummingWriter;

constexpr std::int64_t kDeltaHeaderBytes = 112;
constexpr std::int64_t kDeltaFooterBytes = 8;

/// Expected total file size; safe to compute only after
/// BoundCountsByFileSize has capped both counts at actual/4.
std::int64_t ExpectedDeltaFileSize(std::int64_t num_edits,
                                   std::int64_t num_patched) {
  return kDeltaHeaderBytes + num_edits * 12 + num_patched * 8 +
         kDeltaFooterBytes;
}

Status WriteDeltaTo(const DeltaData& delta, std::FILE* f,
                    const std::string& path) {
  ChecksummingWriter writer(f, path);
  NUCLEUS_CHECK(delta.patched_ids.size() == delta.patched_lambda.size());

  if (Status s = writer.Write(kDeltaMagic, sizeof(kDeltaMagic)); !s.ok()) {
    return s;
  }
  if (Status s = writer.WriteValue(kDeltaVersion); !s.ok()) return s;
  if (Status s = writer.WriteValue(std::uint32_t{0}); !s.ok()) return s;
  if (Status s =
          writer.WriteValue(static_cast<std::int32_t>(Family::kCore12));
      !s.ok()) {
    return s;
  }
  if (Status s = writer.WriteValue(static_cast<std::int32_t>(Algorithm::kDft));
      !s.ok()) {
    return s;
  }
  if (Status s = writer.WriteValue(delta.num_vertices); !s.ok()) return s;
  if (Status s = writer.WriteValue(delta.max_lambda); !s.ok()) return s;
  if (Status s = writer.WriteValue(delta.parent_num_edges); !s.ok()) return s;
  if (Status s = writer.WriteValue(delta.child_num_edges); !s.ok()) return s;
  if (Status s = writer.WriteValue(delta.base_fingerprint); !s.ok()) return s;
  if (Status s = writer.WriteValue(delta.parent_fingerprint); !s.ok()) {
    return s;
  }
  if (Status s = writer.WriteValue(delta.child_fingerprint); !s.ok()) {
    return s;
  }
  if (Status s = writer.WriteValue(delta.parent_lambda_fingerprint);
      !s.ok()) {
    return s;
  }
  if (Status s = writer.WriteValue(delta.child_lambda_fingerprint);
      !s.ok()) {
    return s;
  }
  if (Status s = writer.WriteValue(
          static_cast<std::int64_t>(delta.edits.size()));
      !s.ok()) {
    return s;
  }
  if (Status s = writer.WriteValue(
          static_cast<std::int64_t>(delta.patched_ids.size()));
      !s.ok()) {
    return s;
  }
  if (Status s = writer.WriteValue(std::uint64_t{0}); !s.ok()) return s;

  // Edits flattened as (u, v, op) int32 triples, keeping the "every array
  // entry is an int32" sizing rule of the store formats.
  std::vector<std::int32_t> flat;
  flat.reserve(delta.edits.size() * 3);
  for (const EdgeEdit& edit : delta.edits) {
    flat.push_back(edit.u);
    flat.push_back(edit.v);
    flat.push_back(static_cast<std::int32_t>(edit.op));
  }
  if (Status s = writer.WriteArray(flat); !s.ok()) return s;
  if (Status s = writer.WriteArray(delta.patched_ids); !s.ok()) return s;
  if (Status s = writer.WriteArray(delta.patched_lambda); !s.ok()) return s;

  const std::uint64_t checksum = writer.checksum();
  if (std::fwrite(&checksum, 1, sizeof(checksum), f) != sizeof(checksum)) {
    return Status::Internal("short write to " + path);
  }
  return store_internal::FlushToDevice(f, path);
}

}  // namespace

std::uint64_t LambdaFingerprint(const std::vector<Lambda>& lambda) {
  std::uint64_t hash = store_internal::kFnvOffset;
  const std::int64_t n = static_cast<std::int64_t>(lambda.size());
  hash = store_internal::Fnv1a(hash, &n, sizeof(n));
  if (!lambda.empty()) {
    hash = store_internal::Fnv1a(hash, lambda.data(),
                                 lambda.size() * sizeof(Lambda));
  }
  return hash;
}

Status SaveDelta(const DeltaData& delta, const std::string& path) {
  return store_internal::WriteFileAtomically(
      path, [&delta](std::FILE* f, const std::string& temp_path) {
        return WriteDeltaTo(delta, f, temp_path);
      });
}

StatusOr<DeltaData> LoadDelta(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  ChecksummingReader reader(file.get(), path, "delta record");

  char magic[8];
  if (Status s = reader.Read(magic, sizeof(magic)); !s.ok()) return s;
  if (std::memcmp(magic, kDeltaMagic, sizeof(kDeltaMagic)) != 0) {
    return Status::InvalidArgument(path +
                                   ": header: bad magic (not a delta "
                                   "record)");
  }
  std::uint32_t version = 0;
  if (Status s = reader.ReadValue(&version); !s.ok()) return s;
  if (version != kDeltaVersion) {
    return Status::InvalidArgument(path +
                                   ": header: unsupported delta version " +
                                   std::to_string(version));
  }
  std::uint32_t flags = 0;
  std::int32_t family = 0;
  std::int32_t algorithm = 0;
  std::int64_t num_edits = 0;
  std::int64_t num_patched = 0;
  std::uint64_t reserved = 0;
  DeltaData delta;
  if (Status s = reader.ReadValue(&flags); !s.ok()) return s;
  if (Status s = reader.ReadValue(&family); !s.ok()) return s;
  if (Status s = reader.ReadValue(&algorithm); !s.ok()) return s;
  if (Status s = reader.ReadValue(&delta.num_vertices); !s.ok()) return s;
  if (Status s = reader.ReadValue(&delta.max_lambda); !s.ok()) return s;
  if (Status s = reader.ReadValue(&delta.parent_num_edges); !s.ok()) return s;
  if (Status s = reader.ReadValue(&delta.child_num_edges); !s.ok()) return s;
  if (Status s = reader.ReadValue(&delta.base_fingerprint); !s.ok()) return s;
  if (Status s = reader.ReadValue(&delta.parent_fingerprint); !s.ok()) {
    return s;
  }
  if (Status s = reader.ReadValue(&delta.child_fingerprint); !s.ok()) {
    return s;
  }
  if (Status s = reader.ReadValue(&delta.parent_lambda_fingerprint);
      !s.ok()) {
    return s;
  }
  if (Status s = reader.ReadValue(&delta.child_lambda_fingerprint);
      !s.ok()) {
    return s;
  }
  if (Status s = reader.ReadValue(&num_edits); !s.ok()) return s;
  if (Status s = reader.ReadValue(&num_patched); !s.ok()) return s;
  if (Status s = reader.ReadValue(&reserved); !s.ok()) return s;

  if (flags != 0 || reserved != 0) {
    return Status::InvalidArgument(path + ": header: unknown delta flags");
  }
  if (family != static_cast<std::int32_t>(Family::kCore12) ||
      algorithm != static_cast<std::int32_t>(Algorithm::kDft)) {
    return Status::InvalidArgument(
        path +
        ": header: delta records describe (1,2) core chains only (record "
        "claims another family or algorithm)");
  }
  if (delta.num_vertices < 0 || delta.max_lambda < 0 ||
      delta.parent_num_edges < 0 || delta.child_num_edges < 0 ||
      num_edits < 0 || num_patched < 0) {
    return Status::InvalidArgument(path + ": header: impossible counts");
  }

  // Bound counts by the file size BEFORE any size arithmetic (the same
  // guard as the snapshot reader: a crafted count must not wrap the
  // multiplication or reach an over-allocation).
  StatusOr<std::int64_t> actual = FileSize(file.get(), path);
  if (!actual.ok()) return actual.status();
  const std::int64_t max_entries = *actual / 4;  // every array is int32
  if (num_edits > max_entries || num_patched > max_entries) {
    return Status::InvalidArgument(
        path +
        ": header: size mismatch (header counts exceed the file size; "
        "truncated or corrupt)");
  }
  if (*actual != ExpectedDeltaFileSize(num_edits, num_patched)) {
    return Status::InvalidArgument(
        path + ": header: size mismatch (expected " +
        std::to_string(ExpectedDeltaFileSize(num_edits, num_patched)) +
        " bytes, file has " + std::to_string(*actual) +
        "; truncated or trailing data)");
  }

  std::vector<std::int32_t> flat;
  reader.BeginSection("edits");
  if (Status s = reader.ReadArray(num_edits * 3, &flat); !s.ok()) return s;
  reader.BeginSection("patched_ids");
  if (Status s = reader.ReadArray(num_patched, &delta.patched_ids); !s.ok()) {
    return s;
  }
  reader.BeginSection("patched_lambda");
  if (Status s = reader.ReadArray(num_patched, &delta.patched_lambda);
      !s.ok()) {
    return s;
  }

  const std::uint64_t computed = reader.checksum();
  std::uint64_t stored = 0;
  if (std::fread(&stored, 1, sizeof(stored), file.get()) != sizeof(stored)) {
    return Status::OutOfRange(path + ": footer: truncated delta record");
  }
  if (stored != computed) {
    return Status::InvalidArgument(
        path + ": footer: checksum mismatch (corrupt delta record)");
  }

  delta.edits.reserve(static_cast<std::size_t>(num_edits));
  for (std::int64_t i = 0; i < num_edits; ++i) {
    EdgeEdit edit;
    edit.u = flat[static_cast<std::size_t>(3 * i)];
    edit.v = flat[static_cast<std::size_t>(3 * i + 1)];
    const std::int32_t op = flat[static_cast<std::size_t>(3 * i + 2)];
    if (edit.u < 0 || edit.u >= delta.num_vertices || edit.v < 0 ||
        edit.v >= delta.num_vertices || edit.u == edit.v ||
        (op != static_cast<std::int32_t>(EdgeEditOp::kInsert) &&
         op != static_cast<std::int32_t>(EdgeEditOp::kRemove))) {
      return Status::InvalidArgument(path + ": edits: corrupt edit list");
    }
    edit.op = static_cast<EdgeEditOp>(op);
    delta.edits.push_back(edit);
  }
  for (std::int64_t i = 0; i < num_patched; ++i) {
    const VertexId id = delta.patched_ids[static_cast<std::size_t>(i)];
    const Lambda l = delta.patched_lambda[static_cast<std::size_t>(i)];
    if (id < 0 || id >= delta.num_vertices ||
        (i > 0 && delta.patched_ids[static_cast<std::size_t>(i - 1)] >= id)) {
      return Status::InvalidArgument(path +
                                     ": patched_ids: corrupt lambda patch "
                                     "ids");
    }
    if (l < 0 || l > delta.max_lambda) {
      return Status::InvalidArgument(path +
                                     ": patched_lambda: corrupt lambda "
                                     "patch values");
    }
  }
  return delta;
}

StatusOr<SnapshotData> ResolveChain(const std::vector<std::string>& paths,
                                    const Graph& graph, ChainLink* link) {
  if (paths.empty()) {
    return Status::InvalidArgument("empty snapshot chain");
  }
  StatusOr<SnapshotData> base = LoadSnapshot(paths[0]);
  if (!base.ok()) return base.status();
  SnapshotData snapshot = std::move(*base);
  if (snapshot.meta.family != Family::kCore12) {
    return Status::InvalidArgument(
        "snapshot chains support (1,2) core snapshots only (base " +
        paths[0] + " is another family)");
  }
  if (snapshot.meta.num_cliques != snapshot.meta.num_vertices) {
    return Status::InvalidArgument(
        "corrupt (1,2) base snapshot " + paths[0] +
        " (clique count differs from vertex count)");
  }
  if (graph.NumVertices() != snapshot.meta.num_vertices) {
    return Status::InvalidArgument(
        "graph does not match the chain: vertex count differs from " +
        paths[0]);
  }

  const std::uint64_t base_fingerprint = snapshot.meta.graph_fingerprint;
  std::int64_t current_edges = snapshot.meta.num_edges;
  std::uint64_t parent_fingerprint = 0;  // edge-set identity, set below
  std::uint64_t lambda_fingerprint = LambdaFingerprint(snapshot.peel.lambda);
  Lambda final_max_lambda = snapshot.meta.max_lambda;
  bool first = true;

  for (std::size_t i = 1; i < paths.size(); ++i) {
    StatusOr<DeltaData> loaded = LoadDelta(paths[i]);
    if (!loaded.ok()) return loaded.status();
    const DeltaData& delta = *loaded;
    if (delta.num_vertices != snapshot.meta.num_vertices) {
      return Status::InvalidArgument("broken chain: " + paths[i] +
                                     " has a different vertex count");
    }
    if (delta.base_fingerprint != base_fingerprint) {
      return Status::InvalidArgument("broken chain: " + paths[i] +
                                     " descends from a different base "
                                     "snapshot");
    }
    // The lambda fingerprint anchors every link to the base snapshot's
    // lambdas — the first record included, for which the edge-set parent
    // fingerprint is not independently checkable.
    if (delta.parent_num_edges != current_edges ||
        delta.parent_lambda_fingerprint != lambda_fingerprint ||
        (!first && delta.parent_fingerprint != parent_fingerprint)) {
      return Status::InvalidArgument(
          "broken chain: " + paths[i] +
          " does not continue the preceding record (wrong order or a "
          "missing link)");
    }
    for (std::size_t j = 0; j < delta.patched_ids.size(); ++j) {
      snapshot.peel
          .lambda[static_cast<std::size_t>(delta.patched_ids[j])] =
          delta.patched_lambda[j];
    }
    lambda_fingerprint = LambdaFingerprint(snapshot.peel.lambda);
    if (delta.child_lambda_fingerprint != lambda_fingerprint) {
      return Status::InvalidArgument(
          "broken chain: " + paths[i] +
          " patch does not produce its recorded lambda state");
    }
    current_edges = delta.child_num_edges;
    parent_fingerprint = delta.child_fingerprint;
    final_max_lambda = delta.max_lambda;
    first = false;
  }

  // Pair the resolved chain with the caller's graph: |E| and the edge-set
  // fingerprint of the leaf state must match (for a delta-less chain the
  // base's CSR fingerprint is the authority).
  if (graph.NumEdges() != current_edges) {
    return Status::InvalidArgument(
        "graph does not match the chain: edge count differs from the leaf "
        "record");
  }
  if (first) {
    if (GraphFingerprint(graph) != base_fingerprint) {
      return Status::InvalidArgument(
          "graph does not match the snapshot fingerprint of " + paths[0]);
    }
    if (link != nullptr) {
      link->base_fingerprint = base_fingerprint;
      link->parent_fingerprint = EdgeSetFingerprint(graph);
    }
    return snapshot;
  }
  if (EdgeSetFingerprint(graph) != parent_fingerprint) {
    return Status::InvalidArgument(
        "graph does not match the chain: edge-set fingerprint differs from "
        "the leaf record");
  }

  // Patched lambdas must still be a plausible peel: the recorded maximum
  // must equal the actual maximum (a cheap cross-record consistency check;
  // full provenance is the fingerprint pairing above).
  Lambda max_lambda = 0;
  for (Lambda l : snapshot.peel.lambda) {
    if (l < 0) {
      return Status::InvalidArgument(
          "broken chain: patched lambdas are negative");
    }
    if (l > max_lambda) max_lambda = l;
  }
  if (max_lambda != final_max_lambda) {
    return Status::InvalidArgument(
        "broken chain: patched lambdas disagree with the leaf record's "
        "max lambda");
  }

  snapshot.peel.max_lambda = max_lambda;
  snapshot.hierarchy = RebuildCoreHierarchy(graph, snapshot.peel);
  snapshot.meta.num_edges = graph.NumEdges();
  snapshot.meta.graph_fingerprint = GraphFingerprint(graph);
  snapshot.meta.max_lambda = max_lambda;
  // The base's jump tables describe the base hierarchy; the resolved state
  // gets fresh ones from the engine (or HierarchyIndex) on demand.
  snapshot.has_index = false;
  snapshot.index_tables = HierarchyIndexTables{};

  if (link != nullptr) {
    link->base_fingerprint = base_fingerprint;
    link->parent_fingerprint = parent_fingerprint;
  }
  return snapshot;
}

}  // namespace nucleus
